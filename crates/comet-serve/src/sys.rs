//! Minimal Linux `epoll` + pipe FFI — the syscalls the readiness
//! event loop needs and nothing more.
//!
//! `std` exposes nonblocking sockets but no readiness API, and the
//! workspace policy is std-only (no mio, no libc crate). The process
//! already links the platform libc through `std`, so declaring the
//! functions we need (`epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! `pipe2`, `close`, and `listen` for a deeper accept queue) is
//! enough. Everything is wrapped in owned types whose `Drop` closes the
//! descriptor, and every raw return value is converted to `io::Result`
//! at the boundary — no unsafety leaks out of this module.

#![allow(clippy::upper_case_acronyms)]

use std::io;
use std::net::TcpListener;
use std::os::fd::{AsRawFd, RawFd};

/// Readable readiness (level-triggered).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported; registration not required).
pub const EPOLLERR: u32 = 0x008;
/// Peer hung up.
pub const EPOLLHUP: u32 = 0x010;
/// Peer half-closed its write side.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Wake only one of the epoll instances sharing this fd on readiness
/// (avoids accept thundering herd across reactor threads).
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const O_CLOEXEC: i32 = 0o2000000;
const O_NONBLOCK: i32 = 0o4000;

/// One readiness event, exactly as the kernel fills it in. x86-64
/// Linux declares the struct packed; the `data` field carries the
/// token we registered the fd with.
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// The caller's token (slot index + generation, packed).
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn pipe2(fds: *mut i32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn listen(fd: i32, backlog: i32) -> i32;
}

/// Accept-queue length the serving listeners ask for; the kernel caps
/// it at `net.core.somaxconn`. `TcpListener::bind` asks for 128, and a
/// connect burst past a full queue loses its SYN and waits about a
/// second for the retransmit.
const LISTEN_BACKLOG: i32 = 4096;

/// `TcpListener::bind`, then `listen` again with `LISTEN_BACKLOG`: on
/// a socket that already listens, Linux resizes its accept queue in
/// place.
pub(crate) fn bind_listener(addr: &str) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    // SAFETY: `listen` takes two integers and touches no memory of
    // ours; the fd stays open while `listener` is alive.
    cvt(unsafe { listen(listener.as_raw_fd(), LISTEN_BACKLOG) })?;
    Ok(listener)
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance. Closed on drop.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    /// Register `fd` for `events`, tagged with `token`.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_ADD, fd, &mut ev) }).map(drop)
    }

    /// Change the interest set of a registered `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_MOD, fd, &mut ev) }).map(drop)
    }

    /// Deregister `fd` (safe to call on an already-closed fd — the
    /// error is returned, not panicked on).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev) }).map(drop)
    }

    /// Wait for readiness, at most `timeout_ms` (negative blocks
    /// forever). Returns the filled prefix of `events`. EINTR is
    /// reported as an empty wake, not an error — the caller's loop
    /// re-checks its cancel flag either way.
    pub fn wait<'a>(
        &self,
        events: &'a mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<&'a [EpollEvent]> {
        let n =
            unsafe { epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(&events[..0]);
            }
            return Err(err);
        }
        Ok(&events[..n as usize])
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// The read half of a nonblocking wakeup pipe, registered in a
/// reactor's epoll set.
pub struct WakeReader {
    fd: RawFd,
}

/// The write half: workers (and shutdown) poke it to wake the reactor.
/// Clonable — every worker holds one.
#[derive(Clone)]
pub struct WakeWriter {
    fd: std::sync::Arc<WriterFd>,
}

struct WriterFd(RawFd);

impl Drop for WriterFd {
    fn drop(&mut self) {
        unsafe { close(self.0) };
    }
}

/// `pipe2(O_NONBLOCK | O_CLOEXEC)` — the reactor wakeup channel.
pub fn wake_pipe() -> io::Result<(WakeReader, WakeWriter)> {
    let mut fds = [0i32; 2];
    cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
    Ok((WakeReader { fd: fds[0] }, WakeWriter { fd: std::sync::Arc::new(WriterFd(fds[1])) }))
}

impl WakeReader {
    /// The raw fd, for epoll registration.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Drain every pending wakeup byte (nonblocking).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                return;
            }
        }
    }
}

impl Drop for WakeReader {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

impl WakeWriter {
    /// Poke the reactor. A full pipe means a wakeup is already
    /// pending, which is all we need — the error is ignored.
    pub fn wake(&self) {
        let byte = 1u8;
        unsafe { write(self.fd.0, &byte, 1) };
    }
}

/// `struct rlimit` (64-bit Linux: two `u64`s).
#[repr(C)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// Best-effort raise of the soft open-files limit to at least `want`
/// (clamped to the hard limit; CI runners often default the soft
/// limit to 1024, far below a c10k load test). Returns the soft limit
/// in effect afterwards.
pub fn raise_nofile_limit(want: u64) -> u64 {
    unsafe {
        let mut lim = RLimit { rlim_cur: 0, rlim_max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return 1024;
        }
        if lim.rlim_cur >= want {
            return lim.rlim_cur;
        }
        let raised = RLimit { rlim_cur: want.min(lim.rlim_max), rlim_max: lim.rlim_max };
        if setrlimit(RLIMIT_NOFILE, &raised) == 0 {
            raised.rlim_cur
        } else {
            lim.rlim_cur
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::TcpStream;
    use std::time::Duration;

    #[test]
    fn epoll_reports_readable_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let epoll = Epoll::new().unwrap();
        epoll.add(server.as_raw_fd(), EPOLLIN, 7).unwrap();

        // Nothing to read yet: a zero-timeout wait returns empty.
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        assert!(epoll.wait(&mut events, 0).unwrap().is_empty());

        client.write_all(b"hi").unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        let ready = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!({ ready[0].data }, 7);
        assert_ne!({ ready[0].events } & EPOLLIN, 0);

        epoll.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn deep_backlog_queues_a_connect_burst_nobody_accepts() {
        raise_nofile_limit(2048);
        let listener = bind_listener("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Each open connection holds a queue slot. Past a full accept
        // queue a connect loses its SYN and times out here; std's
        // backlog of 128 stops at 129.
        let _held: Vec<TcpStream> = (0..512)
            .map(|i| {
                TcpStream::connect_timeout(&addr, Duration::from_millis(300))
                    .unwrap_or_else(|e| panic!("connect {i} of 512 without an accept: {e}"))
            })
            .collect();
    }

    #[test]
    fn nofile_limit_is_queryable_and_monotonic() {
        // Asking for a trivially small floor must report the (already
        // higher) current limit; the call never lowers it.
        let before = raise_nofile_limit(64);
        assert!(before >= 64);
        assert!(raise_nofile_limit(64) >= before);
    }

    #[test]
    fn wake_pipe_wakes_and_drains() {
        let (reader, writer) = wake_pipe().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(reader.fd(), EPOLLIN, 42).unwrap();

        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert!(epoll.wait(&mut events, 0).unwrap().is_empty());

        let from_thread = writer.clone();
        std::thread::spawn(move || from_thread.wake()).join().unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        let ready = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(ready.len(), 1);
        assert_eq!({ ready[0].data }, 42);

        reader.drain();
        // Drained: level-triggered readiness is gone.
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert!(epoll.wait(&mut events, 0).unwrap().is_empty());
    }
}

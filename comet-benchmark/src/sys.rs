//! The few operating-system facts and calls the load generator needs
//! that `std` does not offer: peak RSS, the CPU model, a readiness
//! wait with sub-millisecond timeout, and timer slack.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on x86-64 Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Block until one of `fds` is readable (or writable, where its flag
/// is set), or `timeout` passes. Nanosecond timeout, unlike
/// `epoll_wait`, so an open-loop sender can sleep exactly until its
/// next due time.
pub fn wait_ready(fds: &[(RawFd, bool)], timeout: Duration) -> io::Result<()> {
    let mut pfds: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, want_write)| PollFd {
            fd,
            events: if want_write { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfds` holds `pfds.len()` initialized pollfd structs and
    // `ts` is a live timespec for the duration of the call; a null
    // sigmask means "keep the current mask".
    let ret = unsafe { ppoll(pfds.as_mut_ptr(), pfds.len() as u64, &ts, std::ptr::null()) };
    if ret < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// Shrink this thread's timer slack to 1 ns. The default 50 µs slack
/// would make every timed wakeup of the open-loop sender up to 50 µs
/// late, which is a third of a store-hit request.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // no caller memory.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, name)| name.trim().to_string())
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

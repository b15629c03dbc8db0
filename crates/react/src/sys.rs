//! Hand-written FFI for the epoll poller and fd limits.
//!
//! The workspace takes no external dependencies, so the few libc entry
//! points the reactor needs — `epoll_create1`/`epoll_ctl`/`epoll_wait`,
//! `getrlimit`/`setrlimit` for the `RLIMIT_NOFILE` raise, and `close` —
//! are declared here directly.
//! `std` already links libc, so no build script or link attribute is
//! needed. Every raw call is wrapped in a safe function that owns the
//! pointer/length invariants; callers of this module never write
//! `unsafe` themselves.

#![allow(non_camel_case_types)]

use std::io;
use std::os::raw::c_int;
use std::os::unix::io::RawFd;

/// `rlim_t` is 64-bit on every Linux target.
type rlim_t = u64;

/// `struct rlimit`.
#[repr(C)]
#[derive(Debug, Clone, Copy, Default)]
pub struct Rlimit {
    /// Soft limit (the enforced one).
    pub cur: rlim_t,
    /// Hard ceiling the soft limit may be raised to without privilege.
    pub max: rlim_t,
}

const RLIMIT_NOFILE: c_int = 7;

/// `struct epoll_event`. The kernel packs it on x86-64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    /// `EPOLL*` readiness bits.
    pub events: u32,
    /// Caller-owned cookie (the reactor stores the registration token).
    pub data: u64,
}

/// `EPOLL_CLOEXEC` (== `O_CLOEXEC`).
pub const EPOLL_CLOEXEC: c_int = 0o2000000;
/// `EPOLL_CTL_ADD`.
pub const EPOLL_CTL_ADD: c_int = 1;
/// `EPOLL_CTL_DEL`.
pub const EPOLL_CTL_DEL: c_int = 2;
/// `EPOLL_CTL_MOD`.
pub const EPOLL_CTL_MOD: c_int = 3;
/// `EPOLLIN`.
pub const EPOLLIN: u32 = 0x001;
/// `EPOLLPRI`.
pub const EPOLLPRI: u32 = 0x002;
/// `EPOLLOUT`.
pub const EPOLLOUT: u32 = 0x004;
/// `EPOLLERR`.
pub const EPOLLERR: u32 = 0x008;
/// `EPOLLHUP`.
pub const EPOLLHUP: u32 = 0x010;
/// `EPOLLRDHUP` (peer closed its write half).
pub const EPOLLRDHUP: u32 = 0x2000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Creates a close-on-exec epoll instance and returns its fd.
///
/// # Errors
///
/// Propagates the OS error.
pub fn epoll_create() -> io::Result<RawFd> {
    // SAFETY: no pointers involved; the returned fd is checked.
    check(unsafe { epoll_create1(EPOLL_CLOEXEC) })
}

/// Adds, modifies or removes `fd` in the epoll set (`op` is one of the
/// `EPOLL_CTL_*` constants).
///
/// # Errors
///
/// Propagates the OS error.
pub fn epoll_control(epfd: RawFd, op: c_int, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
    let mut event = EpollEvent { events, data };
    // SAFETY: `event` outlives the call; the kernel copies it.
    check(unsafe { epoll_ctl(epfd, op, fd, &mut event) }).map(|_| ())
}

/// Waits for readiness on the epoll set, filling `events` from the
/// front; returns how many entries are valid. `timeout_ms < 0` blocks
/// indefinitely. Retries `EINTR` internally.
///
/// # Errors
///
/// Propagates the OS error.
pub fn epoll_wait_events(
    epfd: RawFd,
    events: &mut [EpollEvent],
    timeout_ms: c_int,
) -> io::Result<usize> {
    loop {
        let capacity = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
        // SAFETY: `events` is a valid writable buffer of `capacity` entries.
        match check(unsafe { epoll_wait(epfd, events.as_mut_ptr(), capacity, timeout_ms) }) {
            Ok(n) => return Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Closes a raw fd the reactor owns (the epoll instance).
pub fn close_fd(fd: RawFd) {
    // SAFETY: the caller owns `fd` and never uses it again.
    let _ = unsafe { close(fd) };
}

/// Reads the process's `RLIMIT_NOFILE` (soft, hard).
///
/// # Errors
///
/// Propagates the OS error.
pub fn nofile_limit() -> io::Result<Rlimit> {
    let mut lim = Rlimit::default();
    // SAFETY: `lim` is a valid out-pointer for the duration of the call.
    check(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    Ok(lim)
}

/// Raises the soft `RLIMIT_NOFILE` toward `target` and returns the
/// resulting soft limit. A no-op when the soft limit already meets
/// `target`. Privileged processes may lift the hard ceiling as well;
/// that attempt is best-effort, and unprivileged ones fall back to
/// clamping at the existing hard cap.
///
/// # Errors
///
/// Propagates the OS error.
pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
    let lim = nofile_limit()?;
    if target <= lim.cur {
        return Ok(lim.cur);
    }
    if target > lim.max {
        let lifted = Rlimit { cur: target, max: target };
        // SAFETY: `lifted` is a valid in-pointer for the duration of the
        // call. Failure (EPERM without CAP_SYS_RESOURCE) is expected and
        // handled by the clamped fallback below.
        if unsafe { setrlimit(RLIMIT_NOFILE, &lifted) } == 0 {
            return Ok(target);
        }
    }
    let want = target.min(lim.max);
    if want <= lim.cur {
        return Ok(lim.cur);
    }
    let raised = Rlimit { cur: want, max: lim.max };
    // SAFETY: `raised` is a valid in-pointer for the duration of the call.
    check(unsafe { setrlimit(RLIMIT_NOFILE, &raised) })?;
    Ok(want)
}

//! Readiness notification: one level-triggered `epoll` instance per
//! event loop.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

use crate::sys;

/// What a registration wants to hear about. Error/hangup conditions are
/// always reported, as with the underlying syscalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd accepts writes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest, the state every connection starts in.
    pub const READ: Interest = Interest { readable: true, writable: false };
}

/// One readiness event out of [`EpollPoller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: usize,
    /// Readable — includes error/hangup conditions, so a follow-up
    /// `read` observes the failure instead of the loop spinning.
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// The peer hung up or the fd errored.
    pub hangup: bool,
}

/// Converts a wait timeout to `epoll_wait`'s millisecond argument:
/// `None` → block (-1), sub-millisecond waits round up to 1 ms so a
/// pending deadline is never spun on.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) if d.is_zero() => 0,
        Some(d) => i32::try_from(d.as_millis().max(1)).unwrap_or(i32::MAX),
    }
}

/// The readiness source: one epoll instance, O(ready) wakeups. One
/// instance per event loop; none of the methods are re-entrant.
#[derive(Debug)]
pub struct EpollPoller {
    epfd: RawFd,
    buf: Vec<sys::EpollEvent>,
}

impl EpollPoller {
    /// Creates the epoll instance.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure.
    pub fn new() -> io::Result<EpollPoller> {
        Ok(EpollPoller {
            epfd: sys::epoll_create()?,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn mask(interest: Interest) -> u32 {
        let mut mask = sys::EPOLLRDHUP;
        if interest.readable {
            mask |= sys::EPOLLIN;
        }
        if interest.writable {
            mask |= sys::EPOLLOUT;
        }
        mask
    }

    /// Starts watching `fd` under `token`.
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_ADD, fd, Self::mask(interest), token as u64)
    }

    /// Changes the interest set of an already-registered fd.
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_MOD, fd, Self::mask(interest), token as u64)
    }

    /// Stops watching `fd`.
    ///
    /// # Errors
    ///
    /// Propagates the OS error.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until readiness or `timeout` (`None` blocks indefinitely),
    /// appending events to `events` (which the caller clears).
    ///
    /// # Errors
    ///
    /// Propagates the OS error. `EINTR` is retried internally.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let n = sys::epoll_wait_events(self.epfd, &mut self.buf, timeout_ms(timeout))?;
        for raw in &self.buf[..n] {
            let bits = raw.events;
            events.push(Event {
                token: raw.data as usize,
                readable: bits
                    & (sys::EPOLLIN
                        | sys::EPOLLPRI
                        | sys::EPOLLHUP
                        | sys::EPOLLERR
                        | sys::EPOLLRDHUP)
                    != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLHUP | sys::EPOLLERR) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for EpollPoller {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn epoll_backend_reports_readiness() {
        let mut poller = EpollPoller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        // Nothing pending: a zero timeout returns no events.
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty(), "spurious events: {events:?}");

        a.write_all(b"x").unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable), "{events:?}");

        // Write interest fires immediately on an empty socket buffer.
        events.clear();
        poller.reregister(b.as_raw_fd(), 7, Interest { readable: true, writable: true }).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable), "{events:?}");

        // Peer hangup surfaces as readable (so a read observes EOF).
        let mut buf = [0u8; 8];
        let mut b_read = &b;
        let _ = b_read.read(&mut buf);
        drop(a);
        events.clear();
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable), "{events:?}");

        poller.deregister(b.as_raw_fd()).unwrap();
        events.clear();
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty(), "deregistered fd still fires: {events:?}");
    }
}

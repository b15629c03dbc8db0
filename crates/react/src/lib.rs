//! rtreact — a vendored, std-only nonblocking reactor for rtserver.
//!
//! The crate multiplexes thousands of NDJSON connections over a few
//! event threads: readiness comes from an epoll backend on Linux (or a
//! portable `poll(2)` fallback) behind the [`Poller`] trait, bytes are
//! framed into lines by [`LineFramer`], and the event loops in
//! [`reactor`] own all connection state — per-connection read/write
//! buffers, bounded pipelining, idle reaping, and a draining shutdown.
//! CPU-bound work never runs on an event thread: the embedding server's
//! [`Handler`] hands requests to its own pool and answers through a
//! [`Responder`].
//!
//! Like `rtpar`, the crate is vendored into the workspace and depends
//! only on `std` (the handful of libc entry points it needs are declared
//! by hand in a private FFI module).

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("rtreact requires a Unix platform (epoll or poll readiness)");

mod frame;
mod poller;
mod reactor;
mod sys;

pub use frame::{FrameError, LineFramer};
#[cfg(target_os = "linux")]
pub use poller::EpollPoller;
pub use poller::{Event, Interest, PollPoller, Poller, PollerKind};
pub use reactor::{run, Config, Control, Handler, ReactorStats, Responder};
pub use sys::{nofile_limit, raise_nofile_limit, Rlimit};

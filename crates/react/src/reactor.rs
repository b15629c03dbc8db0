//! The event loops: nonblocking accept, per-connection framing and
//! buffered writes over an [`EpollPoller`], with request execution
//! delegated to the embedding server through a [`Handler`].
//!
//! ## Readiness model
//!
//! `run` drives `event_threads` loops. Loop 0 owns the (nonblocking)
//! listener and deals accepted connections round-robin across all loops
//! via per-loop inboxes; every loop then owns its connections outright —
//! no cross-loop locking on the hot path. A readable connection is
//! drained into its [`LineFramer`]; each complete line is timestamped
//! (its *readiness* instant) and queued. At most **one** line per
//! connection is dispatched to the handler at a time, so responses come
//! back in request order exactly like a thread-per-connection server,
//! while different connections proceed in parallel. The handler answers
//! through a [`Responder`] from any thread; the completion lands in the
//! owning loop's inbox, is written on the next writability, and the
//! connection's next queued line dispatches.
//!
//! ## Backpressure and robustness
//!
//! A connection stops being read once `pipeline_cap` framed lines are
//! queued (interest drops to write-only until the queue drains), a line
//! longer than `max_line_bytes` closes the connection, and connections
//! idle past `idle_timeout` with no request in flight are reaped. A
//! mid-write disconnect closes only that connection; its in-flight
//! completion is discarded by generation check when it arrives.
//!
//! ## Shutdown
//!
//! A handler finishing with [`Control::Shutdown`] (after its response is
//! queued for its own connection) raises the shared flag and wakes every
//! loop. Loops stop accepting and reading, drop undispatched lines, and
//! drain: every dispatched request still completes and flushes before
//! its loop exits (bounded by `drain_timeout` against wedged peers).

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::frame::{FrameError, LineFramer};
use crate::poller::{EpollPoller, Event, Interest};

/// Reactor tuning. The defaults suit an analysis server: small event
/// fleet, generous line cap, bounded pipelining.
#[derive(Debug, Clone)]
pub struct Config {
    /// Event loops to run (≥ 1). Loop 0 also accepts.
    pub event_threads: usize,
    /// Reap connections idle this long with no request in flight.
    /// `None` (the default) never reaps — idle keepalive connections are
    /// free under readiness polling.
    pub idle_timeout: Option<Duration>,
    /// Fatal cap on a single line's length.
    pub max_line_bytes: usize,
    /// Framed-but-undispatched lines buffered per connection before its
    /// read interest is dropped.
    pub pipeline_cap: usize,
    /// Upper bound on the shutdown drain (wedged-peer insurance).
    pub drain_timeout: Duration,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            event_threads: 2,
            idle_timeout: None,
            max_line_bytes: 8 << 20,
            pipeline_cap: 64,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// The embedding server's request entry point.
pub trait Handler: Send + Sync + 'static {
    /// Called on an event thread for each framed line. `ready` is the
    /// instant the line was fully framed; `ready.elapsed()` at pickup is
    /// therefore the readiness-to-dispatch queue wait. The handler must
    /// not block: either respond inline or hand off to a worker pool,
    /// then answer (from any thread) through `responder`.
    fn on_line(&self, line: String, ready: Instant, responder: Responder);
}

/// What the reactor does after writing a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep serving.
    Continue,
    /// Flush this response, then drain every loop and return from
    /// [`run`].
    Shutdown,
}

struct Completion {
    slot: usize,
    gen: u64,
    response: String,
    control: Control,
}

enum Inbound {
    Conn(TcpStream),
    Done(Completion),
}

/// One loop's mailbox: new connections from the acceptor, completions
/// from worker threads, plus the wake pipe that interrupts its poller.
struct LoopShared {
    inbox: Mutex<Vec<Inbound>>,
    waker: UnixStream,
}

impl LoopShared {
    fn push(&self, item: Inbound) {
        self.inbox.lock().expect("reactor inbox").push(item);
        self.wake();
    }

    fn wake(&self) {
        // A full pipe already guarantees a pending wakeup; errors here
        // mean the loop is gone, which the generation check absorbs.
        let _ = (&self.waker).write(&[1]);
    }
}

/// The write-side of one dispatched request. Exactly one response per
/// responder: `send` consumes it; dropping without sending completes
/// the request with no bytes written (the connection keeps serving).
pub struct Responder {
    target: Option<Arc<LoopShared>>,
    slot: usize,
    gen: u64,
}

impl std::fmt::Debug for Responder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Responder").field("slot", &self.slot).field("gen", &self.gen).finish()
    }
}

impl Responder {
    /// Queues `response` (one or more newline-separated frames; the
    /// reactor appends the final newline) for the owning connection.
    pub fn send(self, response: String) {
        self.send_with(response, Control::Continue);
    }

    /// Like [`send`](Responder::send), plus a post-write [`Control`].
    pub fn send_with(mut self, response: String, control: Control) {
        self.complete(response, control);
    }

    fn complete(&mut self, response: String, control: Control) {
        if let Some(target) = self.target.take() {
            target.push(Inbound::Done(Completion {
                slot: self.slot,
                gen: self.gen,
                response,
                control,
            }));
        }
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        // An unanswered dispatch would wedge its connection (one line in
        // flight at a time); complete it with no bytes instead.
        self.complete(String::new(), Control::Continue);
    }
}

/// Always-on reactor counters, shared with the embedding server's
/// metrics endpoints.
#[derive(Debug, Default)]
pub struct ReactorStats {
    connections_open: AtomicU64,
    connections_total: AtomicU64,
    idle_closed: AtomicU64,
    overflow_closed: AtomicU64,
    write_errors: AtomicU64,
    accept_errors: AtomicU64,
    stale_completions: AtomicU64,
    lines_framed: AtomicU64,
    event_threads: AtomicUsize,
}

impl ReactorStats {
    /// Connections currently registered with some event loop.
    pub fn connections_open(&self) -> u64 {
        self.connections_open.load(Ordering::Relaxed)
    }

    /// Connections accepted since startup.
    pub fn connections_total(&self) -> u64 {
        self.connections_total.load(Ordering::Relaxed)
    }

    /// Connections reaped by the idle timeout.
    pub fn idle_closed(&self) -> u64 {
        self.idle_closed.load(Ordering::Relaxed)
    }

    /// Connections closed for exceeding the line cap.
    pub fn overflow_closed(&self) -> u64 {
        self.overflow_closed.load(Ordering::Relaxed)
    }

    /// Connections closed on a failed response write (peer went away
    /// mid-response).
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Accept-loop errors (fd exhaustion and kin).
    pub fn accept_errors(&self) -> u64 {
        self.accept_errors.load(Ordering::Relaxed)
    }

    /// Completions that arrived after their connection closed.
    pub fn stale_completions(&self) -> u64 {
        self.stale_completions.load(Ordering::Relaxed)
    }

    /// Complete request lines framed.
    pub fn lines_framed(&self) -> u64 {
        self.lines_framed.load(Ordering::Relaxed)
    }

    /// Event loops the reactor is running (set by [`run`]).
    pub fn event_threads(&self) -> usize {
        self.event_threads.load(Ordering::Relaxed)
    }
}

const TOKEN_WAKE: usize = 0;
const TOKEN_LISTEN: usize = 1;
const TOKEN_BASE: usize = 2;

/// Drives the reactor over `listener` until a handler returns
/// [`Control::Shutdown`], then drains and returns. Blocks the calling
/// thread (which doubles as event loop 0).
///
/// # Errors
///
/// Returns poller-creation or fatal event-loop errors; per-connection
/// failures are contained to their connection.
///
/// # Panics
///
/// Panics if `config.event_threads` is zero.
pub fn run(
    listener: TcpListener,
    handler: Arc<dyn Handler>,
    config: &Config,
    stats: Arc<ReactorStats>,
) -> io::Result<()> {
    assert!(config.event_threads > 0, "the reactor needs at least one event thread");
    listener.set_nonblocking(true)?;
    stats.event_threads.store(config.event_threads, Ordering::Relaxed);
    let shutdown = Arc::new(AtomicU64::new(0));

    let mut wake_ends = Vec::with_capacity(config.event_threads);
    let mut peers = Vec::with_capacity(config.event_threads);
    for _ in 0..config.event_threads {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        peers.push(Arc::new(LoopShared { inbox: Mutex::new(Vec::new()), waker: tx }));
        wake_ends.push(rx);
    }

    let mut loops = Vec::with_capacity(config.event_threads);
    let mut listener = Some(listener);
    for (index, waker) in wake_ends.into_iter().enumerate() {
        loops.push(EventLoop {
            index,
            poller: EpollPoller::new()?,
            waker,
            listener: if index == 0 { listener.take() } else { None },
            peers: peers.clone(),
            shared: Arc::clone(&peers[index]),
            next_peer: 0,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            dispatched: 0,
            handler: Arc::clone(&handler),
            stats: Arc::clone(&stats),
            shutdown: Arc::clone(&shutdown),
            draining_since: None,
            next_sweep: Instant::now(),
            config: config.clone(),
        });
    }

    let mut first = loops.remove(0);
    let spawned: Vec<_> = loops
        .into_iter()
        .map(|mut event_loop| {
            std::thread::Builder::new()
                .name(format!("rtreact-{}", event_loop.index))
                .spawn(move || event_loop.run())
        })
        .collect::<io::Result<_>>()?;
    let result = first.run();
    for thread in spawned {
        match thread.join() {
            Ok(joined) => joined?,
            Err(_) => return Err(io::Error::other("an event loop panicked")),
        }
    }
    result
}

struct Conn {
    stream: TcpStream,
    gen: u64,
    framer: LineFramer,
    write_buf: Vec<u8>,
    write_pos: usize,
    pending: VecDeque<(String, Instant)>,
    dispatched: bool,
    eof: bool,
    last_activity: Instant,
    interest: Interest,
}

impl Conn {
    fn write_pending(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }
}

struct EventLoop {
    index: usize,
    poller: EpollPoller,
    waker: UnixStream,
    listener: Option<TcpListener>,
    peers: Vec<Arc<LoopShared>>,
    shared: Arc<LoopShared>,
    next_peer: usize,
    conns: Vec<Option<Conn>>,
    /// Per-slot generation counters; completions must match to apply, so
    /// a slot reused after a disconnect never receives a stale response.
    gens: Vec<u64>,
    free: Vec<usize>,
    /// Requests dispatched by this loop whose completions are still
    /// outstanding (counted across closed connections too — every
    /// dispatch produces exactly one completion).
    dispatched: usize,
    handler: Arc<dyn Handler>,
    stats: Arc<ReactorStats>,
    shutdown: Arc<AtomicU64>,
    draining_since: Option<Instant>,
    next_sweep: Instant,
    config: Config,
}

impl EventLoop {
    fn run(&mut self) -> io::Result<()> {
        let result = self.run_inner();
        // A fatal exit must not strand sibling loops mid-drain.
        self.shutdown.store(1, Ordering::SeqCst);
        for peer in &self.peers {
            peer.wake();
        }
        result
    }

    fn run_inner(&mut self) -> io::Result<()> {
        self.poller.register(self.waker.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        if let Some(listener) = &self.listener {
            self.poller.register(listener.as_raw_fd(), TOKEN_LISTEN, Interest::READ)?;
        }
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = self.wait_timeout();
            events.clear();
            self.poller.wait(&mut events, timeout)?;
            self.drain_inbox();
            for &event in &events {
                match event.token {
                    TOKEN_WAKE => self.drain_waker(),
                    TOKEN_LISTEN => self.accept_ready(),
                    token => self.conn_ready(token - TOKEN_BASE, event),
                }
            }
            self.drain_inbox();
            self.sweep_idle();
            if self.shutting_down() && self.finish_shutdown() {
                return Ok(());
            }
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) != 0
    }

    fn wait_timeout(&self) -> Option<Duration> {
        let mut timeout = None;
        if self.config.idle_timeout.is_some() {
            let until = self.next_sweep.saturating_duration_since(Instant::now());
            timeout = Some(until.max(Duration::from_millis(1)));
        }
        if self.shutting_down() {
            // Re-check the drain deadline even if no event arrives.
            let cap = Duration::from_millis(50);
            timeout = Some(timeout.map_or(cap, |t: Duration| t.min(cap)));
        }
        timeout
    }

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 256];
        loop {
            match (&self.waker).read(&mut sink) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn drain_inbox(&mut self) {
        let items = std::mem::take(&mut *self.shared.inbox.lock().expect("reactor inbox"));
        for item in items {
            match item {
                Inbound::Conn(stream) => self.adopt(stream),
                Inbound::Done(done) => self.complete(done),
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.stats.connections_total.fetch_add(1, Ordering::Relaxed);
                    let target = self.next_peer % self.peers.len();
                    self.next_peer = self.next_peer.wrapping_add(1);
                    if target == self.index {
                        self.adopt(stream);
                    } else {
                        self.peers[target].push(Inbound::Conn(stream));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(_) => {
                    // Typically fd exhaustion; drop this round and let the
                    // level-triggered listener retry on the next wait.
                    self.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        if self.shutting_down() || stream.set_nonblocking(true).is_err() {
            return;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.gens.push(0);
            self.conns.len() - 1
        });
        self.gens[slot] += 1;
        let fd = stream.as_raw_fd();
        let conn = Conn {
            stream,
            gen: self.gens[slot],
            framer: LineFramer::new(self.config.max_line_bytes),
            write_buf: Vec::new(),
            write_pos: 0,
            pending: VecDeque::new(),
            dispatched: false,
            eof: false,
            last_activity: Instant::now(),
            interest: Interest::READ,
        };
        if self.poller.register(fd, TOKEN_BASE + slot, Interest::READ).is_err() {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(conn);
        self.stats.connections_open.fetch_add(1, Ordering::Relaxed);
    }

    fn conn_ready(&mut self, slot: usize, event: Event) {
        if self.conns.get(slot).is_none_or(Option::is_none) {
            return;
        }
        if event.writable {
            self.flush(slot);
        }
        if event.readable {
            self.read_ready(slot);
        }
        self.after_io(slot);
    }

    fn read_ready(&mut self, slot: usize) {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            let outcome = {
                let Some(conn) = self.conns[slot].as_mut() else { return };
                if conn.eof || conn.pending.len() >= self.config.pipeline_cap {
                    break;
                }
                conn.stream.read(&mut scratch)
            };
            match outcome {
                Ok(0) => {
                    let partial = {
                        let Some(conn) = self.conns[slot].as_mut() else { return };
                        conn.eof = true;
                        conn.framer.take_partial()
                    };
                    match partial {
                        // A truncated final line still gets handled (and
                        // booked), matching the blocking server's
                        // `BufRead::lines` EOF semantics.
                        Ok(Some(line)) if !line.trim().is_empty() => {
                            self.stats.lines_framed.fetch_add(1, Ordering::Relaxed);
                            if let Some(conn) = self.conns[slot].as_mut() {
                                conn.pending.push_back((line, Instant::now()));
                            }
                        }
                        Ok(_) => {}
                        Err(_) => {
                            self.close(slot);
                            return;
                        }
                    }
                    break;
                }
                Ok(n) => {
                    if let Some(conn) = self.conns[slot].as_mut() {
                        conn.last_activity = Instant::now();
                        conn.framer.push(&scratch[..n]);
                    }
                    if !self.pull_lines(slot) {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        self.try_dispatch(slot);
    }

    /// Moves complete lines from the framer to the pending queue; false
    /// means the connection was closed for a framing error.
    fn pull_lines(&mut self, slot: usize) -> bool {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else { return false };
            if conn.pending.len() >= self.config.pipeline_cap {
                return true;
            }
            match conn.framer.next_line() {
                Ok(Some(line)) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    conn.pending.push_back((line, Instant::now()));
                    self.stats.lines_framed.fetch_add(1, Ordering::Relaxed);
                }
                Ok(None) => return true,
                Err(FrameError::Oversized(_)) => {
                    self.stats.overflow_closed.fetch_add(1, Ordering::Relaxed);
                    self.close(slot);
                    return false;
                }
                Err(FrameError::Utf8) => {
                    self.close(slot);
                    return false;
                }
            }
        }
    }

    fn try_dispatch(&mut self, slot: usize) {
        if self.shutting_down() {
            return;
        }
        let Some(conn) = self.conns[slot].as_mut() else { return };
        if conn.dispatched {
            return;
        }
        let Some((line, ready)) = conn.pending.pop_front() else { return };
        conn.dispatched = true;
        let gen = conn.gen;
        self.dispatched += 1;
        let responder = Responder { target: Some(Arc::clone(&self.shared)), slot, gen };
        let handler = Arc::clone(&self.handler);
        handler.on_line(line, ready, responder);
    }

    fn complete(&mut self, done: Completion) {
        // Every dispatch produces exactly one completion, even for
        // connections that died first.
        self.dispatched = self.dispatched.saturating_sub(1);
        let live = self.conns.get_mut(done.slot).and_then(Option::as_mut);
        let valid = live.as_ref().is_some_and(|conn| conn.gen == done.gen);
        if !valid {
            self.stats.stale_completions.fetch_add(1, Ordering::Relaxed);
        } else if let Some(conn) = live {
            conn.dispatched = false;
            conn.last_activity = Instant::now();
            if !done.response.is_empty() {
                conn.write_buf.extend_from_slice(done.response.as_bytes());
                conn.write_buf.push(b'\n');
            }
            self.flush(done.slot);
        }
        if done.control == Control::Shutdown && !self.shutting_down() {
            self.shutdown.store(1, Ordering::SeqCst);
            for peer in &self.peers {
                peer.wake();
            }
        }
        if valid {
            self.pull_lines(done.slot);
            self.try_dispatch(done.slot);
            self.after_io(done.slot);
        }
    }

    fn flush(&mut self, slot: usize) {
        loop {
            let outcome = {
                let Some(conn) = self.conns[slot].as_mut() else { return };
                if !conn.write_pending() {
                    conn.write_buf.clear();
                    conn.write_pos = 0;
                    return;
                }
                conn.stream.write(&conn.write_buf[conn.write_pos..])
            };
            match outcome {
                Ok(0) => {
                    self.stats.write_errors.fetch_add(1, Ordering::Relaxed);
                    self.close(slot);
                    return;
                }
                Ok(n) => {
                    if let Some(conn) = self.conns[slot].as_mut() {
                        conn.write_pos += n;
                        conn.last_activity = Instant::now();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.stats.write_errors.fetch_add(1, Ordering::Relaxed);
                    self.close(slot);
                    return;
                }
            }
        }
    }

    /// Settles a connection after any I/O: closes it when finished,
    /// otherwise reconciles its poller interest with its state.
    fn after_io(&mut self, slot: usize) {
        let shutting_down = self.shutting_down();
        let (finished, desired, current, fd) = {
            let Some(conn) = self.conns[slot].as_ref() else { return };
            let write_pending = conn.write_pending();
            let drained = !conn.dispatched && conn.pending.is_empty();
            let finished = (conn.eof || shutting_down) && !write_pending && drained;
            let desired = Interest {
                readable: !conn.eof
                    && !shutting_down
                    && conn.pending.len() < self.config.pipeline_cap,
                writable: write_pending,
            };
            (finished, desired, conn.interest, conn.stream.as_raw_fd())
        };
        if finished {
            self.close(slot);
            return;
        }
        if desired != current {
            if self.poller.reregister(fd, TOKEN_BASE + slot, desired).is_err() {
                self.close(slot);
                return;
            }
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.interest = desired;
            }
        }
    }

    fn close(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else { return };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.free.push(slot);
        self.stats.connections_open.fetch_sub(1, Ordering::Relaxed);
        // An in-flight completion for this conn resolves by gen mismatch.
    }

    fn sweep_idle(&mut self) {
        let Some(idle) = self.config.idle_timeout else { return };
        let now = Instant::now();
        if now < self.next_sweep {
            return;
        }
        let period = (idle / 4).clamp(Duration::from_millis(10), Duration::from_secs(1));
        self.next_sweep = now + period;
        let doomed: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(slot, conn)| {
                let conn = conn.as_ref()?;
                // A connection waiting on its own request is working, not
                // idle — never reap it out from under the analysis.
                (!conn.dispatched && now.duration_since(conn.last_activity) >= idle).then_some(slot)
            })
            .collect();
        for slot in doomed {
            self.stats.idle_closed.fetch_add(1, Ordering::Relaxed);
            self.close(slot);
        }
    }

    /// Drives the drain; true once this loop has nothing left to do.
    fn finish_shutdown(&mut self) -> bool {
        if self.draining_since.is_none() {
            self.draining_since = Some(Instant::now());
            if let Some(listener) = self.listener.take() {
                let _ = self.poller.deregister(listener.as_raw_fd());
            }
            for slot in 0..self.conns.len() {
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.pending.clear();
                }
                self.after_io(slot); // closes drained conns, drops read interest
            }
        }
        let deadline_passed =
            self.draining_since.is_some_and(|since| since.elapsed() >= self.config.drain_timeout);
        let write_pending = self.conns.iter().flatten().any(Conn::write_pending);
        if (self.dispatched == 0 && !write_pending) || deadline_passed {
            for slot in 0..self.conns.len() {
                self.close(slot);
            }
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, BufWriter};
    use std::net::TcpStream;

    /// Echoes `echo:<line>`; `slow` lines answer from a worker thread
    /// after a delay; `quit` shuts the reactor down.
    struct EchoHandler;

    impl Handler for EchoHandler {
        fn on_line(&self, line: String, _ready: Instant, responder: Responder) {
            match line.as_str() {
                "quit" => responder.send_with("bye".to_string(), Control::Shutdown),
                "drop" => drop(responder),
                slow if slow.starts_with("slow:") => {
                    let line = line.clone();
                    std::thread::spawn(move || {
                        std::thread::sleep(Duration::from_millis(30));
                        responder.send(format!("echo:{line}"));
                    });
                }
                _ => responder.send(format!("echo:{line}")),
            }
        }
    }

    fn spawn_reactor(
        config: Config,
    ) -> (std::net::SocketAddr, Arc<ReactorStats>, std::thread::JoinHandle<io::Result<()>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stats = Arc::new(ReactorStats::default());
        let stats_clone = Arc::clone(&stats);
        let thread =
            std::thread::spawn(move || run(listener, Arc::new(EchoHandler), &config, stats_clone));
        (addr, stats, thread)
    }

    #[test]
    fn echoes_pipelined_lines_in_order_and_shuts_down() {
        let (addr, stats, thread) = spawn_reactor(Config { event_threads: 2, ..Config::default() });
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let mut reader = BufReader::new(stream);
        // A pipelined burst (incl. a slow off-thread response and a
        // dropped responder) must come back in order, minus the drop.
        write!(writer, "a\nslow:b\n\nc\ndrop\nd\n").unwrap();
        writer.flush().unwrap();
        for expected in ["echo:a", "echo:slow:b", "echo:c", "echo:d"] {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), expected);
        }
        writeln!(writer, "quit").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "bye");
        thread.join().unwrap().unwrap();
        assert_eq!(stats.lines_framed(), 6);
        assert_eq!(stats.connections_total(), 1);
        assert_eq!(stats.connections_open(), 0, "shutdown closes everything");
    }

    #[test]
    fn many_connections_multiplex_over_few_event_threads() {
        let (addr, stats, thread) = spawn_reactor(Config { event_threads: 2, ..Config::default() });
        let mut clients: Vec<(BufWriter<TcpStream>, BufReader<TcpStream>)> = (0..32)
            .map(|_| {
                let stream = TcpStream::connect(addr).unwrap();
                (BufWriter::new(stream.try_clone().unwrap()), BufReader::new(stream))
            })
            .collect();
        for (i, (writer, _)) in clients.iter_mut().enumerate() {
            writeln!(writer, "slow:{i}").unwrap();
            writer.flush().unwrap();
        }
        for (i, (_, reader)) in clients.iter_mut().enumerate() {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), format!("echo:slow:{i}"));
        }
        assert_eq!(stats.connections_open(), 32);
        drop(clients);
        let (addr, quit) = (addr, "quit\n");
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        write!(writer, "{quit}").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        thread.join().unwrap().unwrap();
    }

    #[test]
    fn idle_connections_are_reaped_without_stalling_active_ones() {
        let (addr, stats, thread) = spawn_reactor(Config {
            idle_timeout: Some(Duration::from_millis(80)),
            ..Config::default()
        });
        // The slowloris: dribbles half a line and then stalls.
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"{\"cmd\":\"nev").unwrap();
        // The active client keeps talking the whole time.
        let active = TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(active.try_clone().unwrap());
        let mut reader = BufReader::new(active);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            writeln!(writer, "ping").unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "echo:ping");
            if stats.idle_closed() >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "slowloris never reaped");
            std::thread::sleep(Duration::from_millis(20));
        }
        // The reaped socket observes EOF (or reset).
        slow.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut sink = [0u8; 8];
        match slow.read(&mut sink) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("reaped connection produced {n} bytes"),
        }
        writeln!(writer, "quit").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        thread.join().unwrap().unwrap();
    }

    #[test]
    fn oversized_lines_close_only_their_connection() {
        let (addr, stats, thread) =
            spawn_reactor(Config { max_line_bytes: 64, ..Config::default() });
        let mut hog = TcpStream::connect(addr).unwrap();
        hog.write_all(&[b'x'; 256]).unwrap();
        hog.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut sink = [0u8; 8];
        match hog.read(&mut sink) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("oversized connection produced {n} bytes"),
        }
        assert!(stats.overflow_closed() >= 1);
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let mut reader = BufReader::new(stream);
        writeln!(writer, "ok").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "echo:ok");
        writeln!(writer, "quit").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        thread.join().unwrap().unwrap();
    }

    #[test]
    fn disconnect_with_request_in_flight_leaves_the_reactor_serving() {
        let (addr, stats, thread) =
            spawn_reactor(Config { max_line_bytes: 64, ..Config::default() });
        let mut doomed = TcpStream::connect(addr).unwrap();
        doomed.write_all(b"slow:gone\n").unwrap();
        // Wait until the slow request is in flight, then hit the framing
        // cap: the connection closes while its completion is pending, so
        // the completion must resolve by generation mismatch.
        let deadline = Instant::now() + Duration::from_secs(5);
        while stats.lines_framed() == 0 {
            assert!(Instant::now() < deadline, "slow request never framed");
            std::thread::sleep(Duration::from_millis(5));
        }
        doomed.write_all(&[b'x'; 256]).unwrap();
        while stats.stale_completions() == 0 {
            assert!(Instant::now() < deadline, "stale completion never recorded");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(stats.overflow_closed(), 1);
        drop(doomed);
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let mut reader = BufReader::new(stream);
        writeln!(writer, "still-here").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "echo:still-here");
        writeln!(writer, "quit").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        thread.join().unwrap().unwrap();
    }

    #[test]
    fn truncated_final_line_is_still_delivered() {
        let (addr, stats, thread) = spawn_reactor(Config::default());
        {
            let mut partial = TcpStream::connect(addr).unwrap();
            partial.write_all(b"tail-no-newline").unwrap();
            partial.shutdown(std::net::Shutdown::Write).unwrap();
            let mut reader = BufReader::new(partial);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "echo:tail-no-newline");
        }
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        writeln!(writer, "quit").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        thread.join().unwrap().unwrap();
        assert_eq!(stats.lines_framed(), 2);
    }
}

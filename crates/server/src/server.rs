//! The TCP daemon: reactor-driven I/O, request execution, admission
//! control and graceful shutdown.
//!
//! Connection I/O runs on the `rtreact` event loops: a few event threads
//! multiplex every connection's reads, line framing and buffered writes.
//! *Requests* are the unit of dispatch — each framed line becomes one
//! job on the fixed [`WorkerPool`] — and the reactor dispatches at most
//! one request per connection at a time, so each client observes its own
//! requests in order (exactly like the thread-per-connection server this
//! replaced) while requests on different connections execute
//! concurrently up to the pool size.
//!
//! Admission control sits in front of the pool: once the in-flight count
//! reaches `--max-inflight`, new analysis requests are shed on the event
//! thread with a typed `overloaded` error (ops-plane commands always get
//! through), and analysis requests whose readiness-to-pickup wait
//! exceeds their deadline (`--deadline-ms`, or the request's own
//! `deadline_ms`) are rejected with `deadline_exceeded` before any
//! analysis runs.
//!
//! Shutdown protocol: a `shutdown` request completes with
//! [`rtreact::Control::Shutdown`]; the reactor writes the ack, stops
//! accepting and reading, drains every dispatched request, and `serve`
//! returns after the request pool finishes any remaining work.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crpd::{AnalyzedTask, TaskParams};
use rtcli::spec::SpecTask;
use rtcli::{
    cmd_crpd_with, cmd_sim_with, cmd_wcet, cmd_wcrt_cached, CliError, ServeOptions, SystemSpec,
};
use rtobs::flight::{FinishedFlight, FlightRecord, FlightRecorder, STAGES};

use crate::json::Json;
use crate::metrics::{AdmissionSnapshot, Metrics};
use crate::pool::WorkerPool;
use crate::proto::{
    err_response, err_response_coded, ok_response, ok_response_with, Command, Request, SpecPayload,
};
use rtcli::store::{ArtifactStore, TaskSource};

/// State shared by every worker: the artifact cache, the metrics
/// registry, the analysis pool and the shutdown flag.
#[derive(Debug)]
pub struct ServerState {
    /// Memoized analysis artifacts.
    pub store: ArtifactStore,
    /// The counters the flight recorder does not keep: per-endpoint
    /// sheds and deadline misses, and the explore gauges. Request counts
    /// and latencies live in `flight` alone.
    pub metrics: Metrics,
    /// The always-on flight recorder every request flies through.
    pub flight: FlightRecorder,
    /// The `rtpar` pool intra-request analysis fans out on. Sized by the
    /// same `--threads` knob as the connection [`WorkerPool`], so `serve
    /// --threads 1` truly single-threads the analysis (the pool spawns no
    /// background workers; every closure runs inline on the connection
    /// worker).
    analysis: rtpar::Pool,
    /// `--slow-ms`: requests at or above this wall time get their span
    /// tree captured into the black box. `None` disables capture.
    slow_ms: Option<u64>,
    /// The most recent slow-request captures, newest last.
    black_box: Mutex<VecDeque<FinishedFlight>>,
    /// Slow requests captured since startup (the black box is bounded;
    /// this is not).
    slow_total: AtomicU64,
    /// `--max-inflight`: the admission cap on concurrently dispatched
    /// requests; at or past it, new analysis requests are shed.
    max_inflight: u64,
    /// `--deadline-ms`: the server-wide queue-wait deadline for analysis
    /// requests (overridable per request).
    deadline_ms: Option<u64>,
    /// Requests currently dispatched to the worker pool.
    inflight: AtomicU64,
    /// Analysis requests shed by admission control since startup.
    shed_total: AtomicU64,
    /// The reactor's always-on connection counters.
    react_stats: Arc<rtreact::ReactorStats>,
}

/// How many slow-request span trees the black box retains.
const BLACK_BOX_CAP: usize = 32;

impl Default for ServerState {
    fn default() -> Self {
        ServerState::with_threads(rtpar::default_threads())
    }
}

impl ServerState {
    /// State with an analysis pool of `threads` total threads and default
    /// flight-recorder settings (512-record ring, no slow capture).
    pub fn with_threads(threads: usize) -> ServerState {
        ServerState::with_flight(threads, 512, None)
    }

    /// State with an analysis pool of `threads` threads, a flight ring of
    /// `flight_capacity` records, and slow-request capture at `slow_ms`.
    pub fn with_flight(
        threads: usize,
        flight_capacity: usize,
        slow_ms: Option<u64>,
    ) -> ServerState {
        let opts = ServeOptions { threads, flight_capacity, slow_ms, ..ServeOptions::default() };
        ServerState::with_options(&opts)
    }

    /// State configured from the full `trisc serve` option set.
    pub fn with_options(opts: &ServeOptions) -> ServerState {
        ServerState {
            store: ArtifactStore::default(),
            metrics: Metrics::default(),
            flight: FlightRecorder::new(opts.flight_capacity),
            analysis: rtpar::Pool::new(opts.threads),
            slow_ms: opts.slow_ms,
            black_box: Mutex::new(VecDeque::with_capacity(BLACK_BOX_CAP)),
            slow_total: AtomicU64::new(0),
            max_inflight: opts.max_inflight,
            deadline_ms: opts.deadline_ms,
            inflight: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            react_stats: Arc::new(rtreact::ReactorStats::default()),
        }
    }

    /// The analysis pool shared by every request.
    pub fn analysis_pool(&self) -> &rtpar::Pool {
        &self.analysis
    }

    /// The admission gauges as the metrics layer consumes them.
    fn admission(&self) -> AdmissionSnapshot {
        AdmissionSnapshot {
            inflight: self.inflight.load(Ordering::SeqCst),
            max_inflight: self.max_inflight,
            shed_total: self.shed_total.load(Ordering::Relaxed),
            open_connections: self.react_stats.connections_open(),
            event_threads: self.react_stats.event_threads() as u64,
        }
    }
}

/// A bound, not-yet-serving analysis server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    pool: WorkerPool,
    state: Arc<ServerState>,
    config: rtreact::Config,
}

impl Server {
    /// Binds the listener and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Returns the bind error (bad host, port in use, …).
    pub fn bind(opts: &ServeOptions) -> io::Result<Server> {
        // A reactor server is expected to hold thousands of sockets;
        // lift the fd ceiling best-effort before the first accept.
        let _ = rtreact::raise_nofile_limit(65_536);
        let listener = TcpListener::bind((opts.host.as_str(), opts.port))?;
        let config = rtreact::Config {
            event_threads: opts.event_threads,
            idle_timeout: opts.idle_timeout_ms.map(Duration::from_millis),
            ..rtreact::Config::default()
        };
        // `--threads` sizes both the request pool and the analysis pool
        // requests fan out on; event threads are a separate, small knob.
        Ok(Server {
            listener,
            pool: WorkerPool::new(opts.threads),
            state: Arc::new(ServerState::with_options(opts)),
            config,
        })
    }

    /// The bound address (resolves `--port 0` to the actual port).
    ///
    /// # Errors
    ///
    /// Propagates the OS error for a dead socket.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `shutdown` request arrives, then drains in-flight
    /// work and returns.
    ///
    /// # Errors
    ///
    /// Returns an error only for a dead listener socket or a failed
    /// poller; per-connection failures are contained to their connection.
    pub fn serve(self) -> io::Result<()> {
        let Server { listener, pool, state, config } = self;
        let stats = Arc::clone(&state.react_stats);
        let handler = Arc::new(ReactorHandler { state, pool });
        let result = rtreact::run(listener, handler.clone(), &config, stats);
        // The event loops have exited and dropped their handler clones;
        // dropping ours drains the request pool (any work the reactor's
        // drain timeout abandoned still completes, its responses going to
        // already-closed connections).
        drop(handler);
        result
    }

    /// Binds and serves on a background thread; returns a handle with the
    /// resolved address. Used by tests and embedding callers.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn spawn(opts: &ServeOptions) -> io::Result<ServerHandle> {
        let server = Server::bind(opts)?;
        let addr = server.local_addr()?;
        let thread = std::thread::Builder::new()
            .name("rtserver-accept".to_string())
            .spawn(move || server.serve())?;
        Ok(ServerHandle { addr, thread })
    }
}

/// A running background server (see [`Server::spawn`]).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The resolved listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the server to finish (i.e. for a `shutdown` request).
    ///
    /// # Errors
    ///
    /// Propagates the serve error, or reports a panicked server thread.
    pub fn join(self) -> io::Result<()> {
        self.thread.join().map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// Binds, prints the listening address, and serves until shutdown. The
/// `trisc serve` entry point.
///
/// # Errors
///
/// Returns bind/listener errors.
pub fn run(opts: &ServeOptions) -> io::Result<()> {
    // With `--trace-out`, keep one rtobs session alive for the daemon's
    // whole life and flush the Chrome trace of everything it served after
    // the drain. Without it, collection stays disabled and free.
    let session = opts.trace_out.as_deref().map(|_| rtobs::begin());
    let server = Server::bind(opts)?;
    println!(
        "rtserver listening on {} ({} event threads, {} request workers, {}-thread analysis pool)",
        server.local_addr()?,
        opts.event_threads,
        opts.threads,
        opts.threads
    );
    println!(
        "admission: max-inflight {}{}{}",
        opts.max_inflight,
        opts.deadline_ms.map_or(String::new(), |ms| format!(", deadline {ms} ms")),
        opts.idle_timeout_ms.map_or(String::new(), |ms| format!(", idle timeout {ms} ms")),
    );
    match opts.slow_ms {
        Some(ms) => println!(
            "rtflight: {}-record ring, capturing span trees of requests >= {ms} ms",
            opts.flight_capacity
        ),
        None => println!(
            "rtflight: {}-record ring (pass --slow-ms MS to capture slow-request span trees)",
            opts.flight_capacity
        ),
    }
    server.serve()?;
    if let (Some(session), Some(path)) = (session, opts.trace_out.as_deref()) {
        session.recorder().write_chrome_trace(Path::new(path))?;
        println!("rtobs trace written to {path}");
    }
    Ok(())
}

/// The bridge between the reactor's event threads and the request pool.
#[derive(Debug)]
struct ReactorHandler {
    state: Arc<ServerState>,
    pool: WorkerPool,
}

impl rtreact::Handler for ReactorHandler {
    fn on_line(&self, line: String, ready: Instant, responder: rtreact::Responder) {
        // Shed on the event thread, before the request costs a pool slot.
        if let Some(response) = try_shed(&self.state, &line) {
            responder.send(response);
            return;
        }
        self.state.inflight.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        self.pool.execute(move || {
            // Run the request with the server's analysis pool installed so
            // nested `rtpar` fan-out inside the analyses lands there.
            let (response, shutdown) =
                state.analysis.install(|| handle_request(&state, &line, ready));
            state.inflight.fetch_sub(1, Ordering::SeqCst);
            let control =
                if shutdown { rtreact::Control::Shutdown } else { rtreact::Control::Continue };
            responder.send_with(response, control);
        });
    }
}

/// The admission fast path, run on the event thread at dispatch: `None`
/// lets the request through. Only analysis-class commands shed — the ops
/// plane (ping, metrics, statusz, journal, flight, shutdown) must stay
/// responsive precisely when the server is overloaded — and malformed
/// lines take the normal path so their error reporting is unchanged.
/// The under-cap case costs one atomic load; parsing happens only once
/// the server is already saturated.
fn try_shed(state: &ServerState, line: &str) -> Option<String> {
    if state.inflight.load(Ordering::SeqCst) < state.max_inflight {
        return None;
    }
    let request = Request::parse(line).ok()?;
    if !request.cmd.is_analysis() {
        return None;
    }
    let endpoint = request.cmd.endpoint();
    state.shed_total.fetch_add(1, Ordering::Relaxed);
    state.metrics.record_shed(endpoint);
    Some(err_response_coded(
        request.id,
        "overloaded",
        &format!(
            "server at capacity ({} requests in flight, --max-inflight {}); retry later",
            state.inflight.load(Ordering::SeqCst),
            state.max_inflight
        ),
    ))
}

/// Executes one request line; returns the response line and whether this
/// request asked the server to shut down. `ready` is the instant the
/// line was fully framed by the reactor, so `ready.elapsed()` at pickup
/// is the readiness-to-dispatch queue wait the flight recorder
/// attributes. Every request — including malformed ones — flies through
/// the always-on [`FlightRecorder`]; with `--slow-ms` set,
/// over-threshold requests additionally land their full span tree in
/// the black box.
fn handle_request(state: &ServerState, line: &str, ready: Instant) -> (String, bool) {
    let queue_us = ready.elapsed().as_micros() as u64;
    let request = match Request::parse(line) {
        Ok(request) => request,
        Err(error) => {
            state.flight.begin("invalid", queue_us, false).finish(false);
            let response = match error.code {
                Some(code) => err_response_coded(None, code, &error.message),
                None => err_response(None, &error.message),
            };
            return (response, false);
        }
    };
    let endpoint = request.cmd.endpoint();
    let id = request.id;
    // The deadline gate: an analysis request that already waited past its
    // deadline is rejected before any analysis starts — the client has
    // given up on the answer, so computing it would only dig the queue
    // deeper.
    if request.cmd.is_analysis() {
        if let Some(deadline_ms) = request.deadline_ms.or(state.deadline_ms) {
            if queue_us / 1000 >= deadline_ms {
                state.flight.begin(endpoint, queue_us, false).finish(false);
                state.metrics.record_deadline_miss(endpoint);
                return (
                    err_response_coded(
                        id,
                        "deadline_exceeded",
                        &format!(
                            "request waited {} ms, past its {deadline_ms} ms deadline",
                            queue_us / 1000
                        ),
                    ),
                    false,
                );
            }
        }
    }
    let scope = state.flight.begin(endpoint, queue_us, state.slow_ms.is_some());
    let (response, ok, shutdown) = {
        // The whole-request span: the root of a slow request's captured
        // tree, and visible to `--trace-out` recordings too.
        let _request_span = rtobs::span_labeled("request", || endpoint.to_string());
        match &request.cmd {
            Command::Ping => (ok_response(id, "pong"), true, false),
            Command::Metrics => {
                let snapshot = state.metrics.snapshot(
                    &state.store,
                    &state.flight,
                    state.analysis.threads(),
                    state.analysis.background_workers(),
                    &state.admission(),
                );
                (ok_response_with(id, "metrics", snapshot), true, false)
            }
            Command::MetricsProm => {
                let text = state.metrics.prometheus(
                    &state.store,
                    &state.analysis.stats(),
                    &state.flight,
                    state.slow_total.load(Ordering::Relaxed),
                    &state.admission(),
                );
                (ok_response(id, &text), true, false)
            }
            Command::Statusz => (ok_response_with(id, "status", statusz(state)), true, false),
            Command::Journal { n } => {
                let records = state.flight.journal(n.unwrap_or(32) as usize);
                let rows = records.iter().map(record_json).collect();
                (ok_response_with(id, "journal", Json::Arr(rows)), true, false)
            }
            Command::Flight => {
                let flights = state.black_box.lock().expect("black box poisoned");
                let rows = flights.iter().map(flight_json).collect();
                (ok_response_with(id, "flights", Json::Arr(rows)), true, false)
            }
            Command::Shutdown => {
                (ok_response(id, "draining in-flight work, then exiting"), true, true)
            }
            Command::Wcet(payload) => finish(id, run_wcet(payload)),
            Command::Crpd(payload) => finish(id, run_crpd(state, payload)),
            Command::Wcrt(payload) => finish(id, run_wcrt(state, payload)),
            Command::Sim { payload, horizon } => finish(id, run_sim(payload, *horizon)),
            // The streaming commands: on success the "response" is
            // several newline-separated frames, written as one block.
            Command::Explore { payload, grid } => match run_explore(state, id, payload, grid) {
                Ok(frames) => (frames, true, false),
                Err(error) => (err_response(id, &error.to_string()), false, false),
            },
            Command::Batch { items } => {
                let (frames, ok) = run_batch(state, id, items);
                (frames, ok, false)
            }
        }
    };
    let finished = scope.finish(ok);
    if let Some(slow_ms) = state.slow_ms {
        if finished.record.total_us >= slow_ms.saturating_mul(1000) {
            state.slow_total.fetch_add(1, Ordering::Relaxed);
            let mut black_box = state.black_box.lock().expect("black box poisoned");
            if black_box.len() == BLACK_BOX_CAP {
                black_box.pop_front();
            }
            black_box.push_back(finished);
        }
    }
    (response, shutdown)
}

/// A sparse `{stage: value}` object over the [`STAGES`] registry,
/// omitting zero entries.
fn stage_json(values: &[u64]) -> Json {
    Json::Obj(
        STAGES
            .iter()
            .zip(values)
            .filter(|(_, v)| **v != 0)
            .map(|(stage, v)| ((*stage).to_string(), Json::from(*v)))
            .collect(),
    )
}

/// One flight record as a JSON row (journal entries, black-box headers).
fn record_json(record: &FlightRecord) -> Json {
    Json::obj([
        ("id", Json::from(record.id)),
        ("endpoint", Json::from(record.endpoint)),
        ("start_us", Json::from(record.start_us)),
        ("queue_us", Json::from(record.queue_us)),
        ("total_us", Json::from(record.total_us)),
        ("ok", Json::Bool(record.ok)),
        ("stage_ns", stage_json(&record.stage_ns)),
        ("stage_hits", stage_json(&record.stage_hits)),
        ("stage_misses", stage_json(&record.stage_misses)),
        ("spans_dropped", Json::from(record.spans_dropped)),
    ])
}

/// One black-box capture: the record plus its span tree in completion
/// order (`depth` + order reconstructs nesting).
fn flight_json(flight: &FinishedFlight) -> Json {
    let spans: Vec<Json> = flight
        .spans
        .iter()
        .map(|s| {
            Json::obj([
                ("stage", Json::from(s.stage)),
                ("depth", Json::from(u64::from(s.depth))),
                ("start_ns", Json::from(s.start_ns)),
                ("dur_ns", Json::from(s.dur_ns)),
            ])
        })
        .collect();
    Json::obj([("record", record_json(&flight.record)), ("spans", Json::Arr(spans))])
}

/// Executes a `batch` request: every item runs through the analysis
/// pool's indexed fan-out ([`rtpar::par_map_range`]), so results come
/// back in item order deterministically at any pool size. The response
/// is one `result` frame per item plus a final `done` frame, returned as
/// one newline-joined block; the whole request counts as `ok` only when
/// every item succeeded.
fn run_batch(state: &ServerState, id: Option<u64>, items: &[Command]) -> (String, bool) {
    let results: Vec<Result<String, CliError>> = rtpar::par_map_range(items.len(), |i| {
        match &items[i] {
            Command::Wcet(payload) => run_wcet(payload),
            Command::Crpd(payload) => run_crpd(state, payload),
            Command::Wcrt(payload) => run_wcrt(state, payload),
            Command::Sim { payload, horizon } => run_sim(payload, *horizon),
            // The parser admits only the four arms above into a batch.
            other => Err(CliError::Usage(format!("cmd `{}` is not batchable", other.endpoint()))),
        }
    });
    let id_json = || id.map_or(Json::Null, Json::from);
    let mut frames = String::new();
    let mut errors = 0u64;
    for (index, result) in results.iter().enumerate() {
        let payload = match result {
            Ok(output) => ("output", Json::from(output.as_str())),
            Err(error) => {
                errors += 1;
                ("error", Json::from(error.to_string().as_str()))
            }
        };
        let frame = Json::obj([
            ("id", id_json()),
            ("ok", Json::Bool(result.is_ok())),
            ("event", Json::from("result")),
            ("index", Json::from(index as u64)),
            payload,
        ]);
        frames.push_str(&frame.encode());
        frames.push('\n');
    }
    let done = Json::obj([
        ("id", id_json()),
        ("ok", Json::Bool(true)),
        ("event", Json::from("done")),
        ("results", Json::from(results.len() as u64)),
        ("errors", Json::from(errors)),
    ]);
    frames.push_str(&done.encode());
    (frames, errors == 0)
}

/// The `statusz` payload: liveness, admission gauges, per-endpoint
/// quantiles (with shed and deadline-miss counters merged in), stage
/// wall time and stage-cache hit rates, all from always-on collectors.
fn statusz(state: &ServerState) -> Json {
    let endpoints = state
        .metrics
        .endpoint_rows(&state.flight)
        .into_iter()
        .map(|row| {
            let e = &row.flight;
            let json = Json::obj([
                ("count", Json::from(e.count)),
                ("errors", Json::from(e.errors)),
                ("shed", Json::from(row.shed)),
                ("deadline_misses", Json::from(row.deadline_misses)),
                ("p50_us", Json::from(e.p50_us)),
                ("p90_us", Json::from(e.p90_us)),
                ("p99_us", Json::from(e.p99_us)),
                ("max_us", Json::from(e.max_us)),
            ]);
            (e.endpoint.to_string(), json)
        })
        .collect();
    let stage_ns = state
        .flight
        .stage_totals()
        .into_iter()
        .filter(|(_, ns)| *ns != 0)
        .map(|(stage, ns)| (stage.to_string(), Json::from(ns)))
        .collect();
    let stage_cache = state
        .store
        .stage_stats()
        .into_iter()
        .map(|s| {
            let lookups = s.hits + s.misses;
            let hit_rate = if lookups == 0 { 0.0 } else { s.hits as f64 / lookups as f64 };
            let json = Json::obj([
                ("hits", Json::from(s.hits)),
                ("misses", Json::from(s.misses)),
                ("hit_rate", Json::Num((hit_rate * 1e4).round() / 1e4)),
            ]);
            (s.stage.to_string(), json)
        })
        .collect();
    let admission = state.admission();
    Json::obj([
        ("uptime_secs", Json::from(state.flight.uptime_secs())),
        ("inflight", Json::from(admission.inflight)),
        ("max_inflight", Json::from(admission.max_inflight)),
        ("shed_total", Json::from(admission.shed_total)),
        ("open_connections", Json::from(admission.open_connections)),
        ("event_threads", Json::from(admission.event_threads)),
        ("records_total", Json::from(state.flight.records_total())),
        ("flight_capacity", Json::from(state.flight.capacity() as u64)),
        ("slow_ms", state.slow_ms.map_or(Json::Null, Json::from)),
        ("slow_captures", Json::from(state.slow_total.load(Ordering::Relaxed))),
        ("endpoints", Json::Obj(endpoints)),
        ("stage_ns", Json::Obj(stage_ns)),
        ("stage_cache", Json::Obj(stage_cache)),
    ])
}

fn finish(id: Option<u64>, result: Result<String, CliError>) -> (String, bool, bool) {
    match result {
        Ok(output) => (ok_response(id, &output), true, false),
        Err(error) => (err_response(id, &error.to_string()), false, false),
    }
}

/// Parses the payload's spec with an empty base dir, leaving task `FILE`
/// fields as the literal keys the `sources` map uses.
fn parse_spec(payload: &SpecPayload) -> Result<SystemSpec, CliError> {
    SystemSpec::parse(&payload.spec, Path::new(""))
}

/// A task's source text: the inline `sources` entry if present, else the
/// server's filesystem.
fn resolve_source(payload: &SpecPayload, task: &SpecTask) -> Result<String, CliError> {
    let key = task.source.to_string_lossy();
    if let Some(text) = payload.sources.get(key.as_ref()) {
        return Ok(text.clone());
    }
    std::fs::read_to_string(&task.source)
        .map_err(|e| CliError::Io(format!("{}: {e}", task.source.display())))
}

fn run_wcet(payload: &SpecPayload) -> Result<String, CliError> {
    let spec = parse_spec(payload)?;
    let mut out = String::new();
    for task in &spec.tasks {
        out.push_str(&cmd_wcet(&task.name, &resolve_source(payload, task)?, &spec.cache)?);
    }
    Ok(out)
}

fn run_crpd(state: &ServerState, payload: &SpecPayload) -> Result<String, CliError> {
    let spec = parse_spec(payload)?;
    let [preempted_task, preempting_task] = spec.tasks.as_slice() else {
        return Err(CliError::Spec(
            "crpd needs exactly two task lines: the preempted task, then the preempting task"
                .into(),
        ));
    };
    let geometry = spec.cache.geometry()?;
    let model = spec.cache.model();
    // Mirror the one-shot CLI exactly (`cmd_crpd`): pair analysis uses
    // pseudo-parameters — unbounded period, priorities 2 (preempted) and
    // 1 (preempting) — so the server's report is byte-identical.
    let memoized = |task: &SpecTask, priority: u32| -> Result<AnalyzedTask, CliError> {
        state.store.analyzed(
            &task.name,
            &resolve_source(payload, task)?,
            TaskParams { period: u64::MAX, priority },
            geometry,
            model,
        )
    };
    let (preempted, preempting) =
        rtpar::join(|| memoized(preempted_task, 2), || memoized(preempting_task, 1));
    Ok(cmd_crpd_with(&preempted?, &preempting?, &spec.cache))
}

fn run_wcrt(state: &ServerState, payload: &SpecPayload) -> Result<String, CliError> {
    let spec = parse_spec(payload)?;
    let geometry = spec.cache.geometry()?;
    let model = spec.cache.model();
    // Analyze all tasks of the request in parallel; results (and the
    // first error, if any) are taken in task order, so the rendered
    // report is byte-identical at any pool size.
    let tasks: Vec<AnalyzedTask> = rtpar::par_map_range(spec.tasks.len(), |i| {
        let task = &spec.tasks[i];
        state.store.analyzed(
            &task.name,
            &resolve_source(payload, task)?,
            TaskParams { period: task.period, priority: task.priority },
            geometry,
            model,
        )
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    // The pairwise CRPD bounds come from the store's shared cell cache,
    // so repeated (or param-tweaked) requests reuse them.
    cmd_wcrt_cached(&spec, &tasks, state.store.cells())
}

fn run_sim(payload: &SpecPayload, horizon: Option<u64>) -> Result<String, CliError> {
    let spec = parse_spec(payload)?;
    let programs = spec.programs_with(&mut |task| resolve_source(payload, task))?;
    cmd_sim_with(&spec, &programs, horizon)
}

/// Runs a design-space sweep against the server's shared artifact store
/// and returns the streamed NDJSON frames (one per evaluated batch plus
/// the final front frame) as a newline-separated block.
///
/// The sweep's analysis provider is [`ArtifactStore::analyzed_program`],
/// so points share `assemble`/`analyze` artifacts — and `crpd_cell`
/// entries — with every other request the server has served, with
/// single-flight deduplication across concurrent sweeps.
fn run_explore(
    state: &ServerState,
    id: Option<u64>,
    payload: &SpecPayload,
    grid_text: &str,
) -> Result<String, CliError> {
    let spec = parse_spec(payload)?;
    let grid = rtexplore::Grid::parse(grid_text)?;
    let plan = rtexplore::Plan::new(&spec, &grid)?;
    let sources: Vec<String> = spec
        .tasks
        .iter()
        .map(|task| resolve_source(payload, task))
        .collect::<Result<_, CliError>>()?;
    let tasks: Vec<TaskSource> =
        spec.tasks.iter().zip(&sources).map(|(t, s)| TaskSource::new(&t.name, s)).collect();
    let provider =
        |task: usize, geometry, model| state.store.analyzed_program(tasks[task], geometry, model);
    let id_json = || id.map_or(Json::Null, Json::from);
    let mut frames = String::new();
    let outcome = rtexplore::run_sweep(&plan, &provider, state.store.cells(), |batch, front| {
        let points: Vec<Json> = batch
            .iter()
            .map(|point| {
                Json::obj([
                    ("index", Json::from(point.config.index as u64)),
                    ("schedulable", Json::Bool(point.schedulable)),
                    ("row", Json::from(rtexplore::render_point(point).as_str())),
                ])
            })
            .collect();
        let frame = Json::obj([
            ("id", id_json()),
            ("ok", Json::Bool(true)),
            ("event", Json::from("points")),
            ("points", Json::Arr(points)),
            ("front_size", Json::from(front.len() as u64)),
        ]);
        frames.push_str(&frame.encode());
        frames.push('\n');
    })?;
    state.metrics.record_explore(outcome.points as u64, outcome.front.len() as u64);
    let output = rtexplore::explain_front(&plan, &provider, state.store.cells(), &outcome.front)?;
    let front: Vec<Json> =
        outcome.front.members().iter().map(|m| Json::from(m.config.index as u64)).collect();
    let done = Json::obj([
        ("id", id_json()),
        ("ok", Json::Bool(true)),
        ("event", Json::from("done")),
        ("points_total", Json::from(outcome.points as u64)),
        ("front", Json::Arr(front)),
        ("front_size", Json::from(outcome.front.len() as u64)),
        ("output", Json::from(output.as_str())),
    ]);
    frames.push_str(&done.encode());
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::TcpStream;

    const TASK_A: &str = ".data 0x100000\nbuf: .word 1,2,3\n.text 0x1000\nstart: li r1, buf\nld r2, 0(r1)\nld r2, 0(r1)\nhalt\n";
    const TASK_B: &str =
        ".data 0x100400\nbuf: .word 7\n.text 0x2000\nstart: li r1, buf\nld r2, 0(r1)\nhalt\n";

    fn spawn() -> ServerHandle {
        let opts = ServeOptions {
            host: "127.0.0.1".into(),
            port: 0,
            threads: 2,
            trace_out: None,
            ..ServeOptions::default()
        };
        Server::spawn(&opts).expect("bind on an ephemeral port")
    }

    fn roundtrip(addr: SocketAddr, lines: &[String]) -> Vec<Json> {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        lines
            .iter()
            .map(|line| {
                writeln!(writer, "{line}").and_then(|()| writer.flush()).expect("send");
                let mut response = String::new();
                reader.read_line(&mut response).expect("recv");
                Json::parse(response.trim_end()).expect("response is json")
            })
            .collect()
    }

    fn wcrt_request(id: u64) -> String {
        Json::obj([
            ("id", Json::from(id)),
            ("cmd", Json::from("wcrt")),
            (
                "spec",
                Json::from(
                    "cache 64 2 16\ncmiss 20\nccs 50\ntask hi a.s 5000 1\ntask lo b.s 50000 2\n",
                ),
            ),
            ("sources", Json::obj([("a.s", Json::from(TASK_A)), ("b.s", Json::from(TASK_B))])),
        ])
        .encode()
    }

    fn shutdown_and_join(handle: ServerHandle) {
        let replies = roundtrip(handle.addr(), &[r#"{"cmd":"shutdown"}"#.to_string()]);
        assert_eq!(replies[0].get("ok").unwrap().as_bool(), Some(true));
        handle.join().expect("clean exit");
    }

    #[test]
    fn ping_errors_and_shutdown() {
        let handle = spawn();
        let replies = roundtrip(
            handle.addr(),
            &[
                r#"{"id":1,"cmd":"ping"}"#.to_string(),
                "{not json".to_string(),
                r#"{"id":2,"cmd":"crpd","spec":"task a a.s 1 1\n","sources":{"a.s":"halt\n"}}"#
                    .to_string(),
            ],
        );
        assert_eq!(replies[0].get("output").unwrap().as_str(), Some("pong"));
        assert_eq!(replies[0].get("id").unwrap().as_u64(), Some(1));
        assert_eq!(replies[1].get("ok").unwrap().as_bool(), Some(false));
        let crpd_error = replies[2].get("error").unwrap().as_str().unwrap();
        assert!(crpd_error.contains("exactly two task lines"), "{crpd_error}");
        shutdown_and_join(handle);
    }

    #[test]
    fn wcrt_is_memoized_and_matches_the_one_shot_cli() {
        let handle = spawn();
        let replies = roundtrip(
            handle.addr(),
            &[wcrt_request(1), wcrt_request(2), r#"{"cmd":"metrics"}"#.to_string()],
        );
        let first = replies[0].get("output").unwrap().as_str().unwrap();
        let second = replies[1].get("output").unwrap().as_str().unwrap();
        assert_eq!(first, second, "repeated requests must render identically");

        // Byte-identical to the in-process one-shot path.
        let dir = std::env::temp_dir().join(format!("rtserver-wcrt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.s"), TASK_A).unwrap();
        std::fs::write(dir.join("b.s"), TASK_B).unwrap();
        std::fs::write(
            dir.join("sys.spec"),
            "cache 64 2 16\ncmiss 20\nccs 50\ntask hi a.s 5000 1\ntask lo b.s 50000 2\n",
        )
        .unwrap();
        let spec = SystemSpec::load(&dir.join("sys.spec")).unwrap();
        assert_eq!(first, rtcli::cmd_wcrt(&spec).unwrap());
        std::fs::remove_dir_all(&dir).ok();

        let metrics = replies[2].get("metrics").unwrap();
        let cache = metrics.get("artifact_cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(2), "second request hits both tasks");
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(2));
        let wcrt = metrics.get("endpoints").unwrap().get("wcrt").unwrap();
        assert_eq!(wcrt.get("requests").unwrap().as_u64(), Some(2));
        shutdown_and_join(handle);
    }

    #[test]
    fn explore_streams_point_frames_then_a_front() {
        let handle = spawn();
        let request = Json::obj([
            ("id", Json::from(9u64)),
            ("cmd", Json::from("explore")),
            (
                "spec",
                Json::from(
                    "cache 64 2 16\ncmiss 20\nccs 50\ntask hi a.s 5000 1\ntask lo b.s 50000 2\n",
                ),
            ),
            ("grid", Json::from("sets 32 64\nways 1 2\napproach all\n")),
            ("sources", Json::obj([("a.s", Json::from(TASK_A)), ("b.s", Json::from(TASK_B))])),
        ])
        .encode();
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        let mut reader = BufReader::new(stream);
        writeln!(writer, "{request}").and_then(|()| writer.flush()).expect("send");
        // Read frames until the terminal `done` frame.
        let mut point_count = 0;
        let done = loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("recv");
            let frame = Json::parse(line.trim_end()).expect("frame is json");
            assert_eq!(frame.get("ok").unwrap().as_bool(), Some(true), "{line}");
            assert_eq!(frame.get("id").unwrap().as_u64(), Some(9));
            match frame.get("event").unwrap().as_str().unwrap() {
                "points" => {
                    let Some(Json::Arr(points)) = frame.get("points") else {
                        panic!("points frame without points: {line}")
                    };
                    for point in points {
                        assert_eq!(point.get("index").unwrap().as_u64(), Some(point_count));
                        assert!(point
                            .get("row")
                            .unwrap()
                            .as_str()
                            .unwrap()
                            .starts_with(&format!("point {point_count} ")));
                        point_count += 1;
                    }
                }
                "done" => break frame,
                other => panic!("unexpected event `{other}`"),
            }
        };
        assert_eq!(done.get("points_total").unwrap().as_u64(), Some(16));
        assert_eq!(point_count, 16, "every point streamed before done");
        let front_size = done.get("front_size").unwrap().as_u64().unwrap();
        assert!(front_size >= 1);
        let output = done.get("output").unwrap().as_str().unwrap();
        assert!(output.contains("Pareto front ("), "{output}");
        assert!(output.contains("binding task `"), "{output}");

        // The sweep shows up in the metrics snapshot, and its artifacts
        // landed in the shared store (4 geometries x 2 tasks analyses).
        writeln!(writer, r#"{{"cmd":"metrics"}}"#).and_then(|()| writer.flush()).expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        let metrics = Json::parse(line.trim_end()).unwrap();
        let explore = metrics.get("metrics").unwrap().get("explore").unwrap();
        assert_eq!(explore.get("points_total").unwrap().as_u64(), Some(16));
        assert_eq!(explore.get("front_size").unwrap().as_u64(), Some(front_size));
        let stages = metrics.get("metrics").unwrap().get("stages").unwrap();
        assert_eq!(stages.get("analyze").unwrap().get("entries").unwrap().as_u64(), Some(8));
        assert_eq!(stages.get("assemble").unwrap().get("entries").unwrap().as_u64(), Some(2));
        drop(writer);
        drop(reader);
        shutdown_and_join(handle);
    }

    #[test]
    fn sim_and_wcet_render_over_inline_sources() {
        let handle = spawn();
        let sim = Json::obj([
            ("cmd", Json::from("sim")),
            ("horizon", Json::from(60_000u64)),
            (
                "spec",
                Json::from(
                    "cache 64 2 16\ncmiss 20\nccs 50\ntask hi a.s 5000 1\ntask lo b.s 50000 2\n",
                ),
            ),
            ("sources", Json::obj([("a.s", Json::from(TASK_A)), ("b.s", Json::from(TASK_B))])),
        ])
        .encode();
        let wcet = Json::obj([
            ("cmd", Json::from("wcet")),
            ("spec", Json::from("cache 64 2 16\ntask hi a.s 5000 1\n")),
            ("sources", Json::obj([("a.s", Json::from(TASK_A))])),
        ])
        .encode();
        let replies = roundtrip(handle.addr(), &[sim, wcet]);
        let sim_out = replies[0].get("output").unwrap().as_str().unwrap();
        assert!(sim_out.contains("max response"), "{sim_out}");
        let wcet_out = replies[1].get("output").unwrap().as_str().unwrap();
        assert!(wcet_out.contains("WCET ="), "{wcet_out}");
        shutdown_and_join(handle);
    }
}

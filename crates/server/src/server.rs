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
//! Admission control sits in front of the pool: each line is parsed once,
//! on the event thread, and once the in-flight analysis count reaches
//! `--max-inflight`, new analysis requests are shed there with a typed
//! `overloaded` error (ops-plane commands always get through and never
//! take an admission slot), and analysis requests whose
//! readiness-to-pickup wait exceeds their deadline (`--deadline-ms`, or
//! the request's own `deadline_ms`) are rejected with
//! `deadline_exceeded` before any analysis runs.
//!
//! Shutdown protocol: a `shutdown` request completes with
//! [`rtreact::Control::Shutdown`]; the reactor writes the ack, stops
//! accepting and reading, drains every dispatched request, and `serve`
//! returns after the request pool finishes any remaining work.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rtcli::{ArtifactStore, CliError, ServeOptions, SystemSpec};
use rtobs::flight::{FlightRecord, FlightRecorder, STAGES};

use crate::json::Json;
use crate::metrics::Metrics;
use crate::pool::WorkerPool;
use crate::proto::{
    err_response, err_response_coded, ok_response, ok_response_with, Command, ParseError, Request,
    SpecPayload,
};

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
    /// `--max-inflight`: the admission cap on concurrently dispatched
    /// analysis requests; at or past it, new ones are shed.
    max_inflight: u64,
    /// `--deadline-ms`: the server-wide queue-wait deadline for analysis
    /// requests (overridable per request).
    deadline_ms: Option<u64>,
    /// Analysis requests currently dispatched to the worker pool.
    inflight: AtomicU64,
    /// The reactor's always-on connection counters.
    react_stats: Arc<rtreact::ReactorStats>,
    /// `--trace-out`: the recorder every request installs on its thread
    /// for its lifetime, written out by [`run`] after the drain. `None`
    /// leaves collection off.
    trace: Option<Arc<rtobs::Recorder>>,
}

/// How many of the most recent flight records the `journal` keeps.
const FLIGHT_CAPACITY: usize = 512;

impl ServerState {
    /// State configured from the full `trisc serve` option set.
    pub fn with_options(opts: &ServeOptions) -> ServerState {
        ServerState {
            store: ArtifactStore::default(),
            metrics: Metrics::default(),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
            analysis: rtpar::Pool::new(opts.threads),
            max_inflight: opts.max_inflight,
            deadline_ms: opts.deadline_ms,
            inflight: AtomicU64::new(0),
            react_stats: Arc::new(rtreact::ReactorStats::default()),
            trace: opts.trace_out.as_ref().map(|_| Arc::default()),
        }
    }

    /// The analysis pool shared by every request.
    pub fn analysis_pool(&self) -> &rtpar::Pool {
        &self.analysis
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
    let server = Server::bind(opts)?;
    // With `--trace-out`, every request records into the state's one
    // recorder; the Chrome trace of everything served is flushed after
    // the drain.
    let trace = server.state.trace.clone();
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
    server.serve()?;
    if let (Some(trace), Some(path)) = (trace, opts.trace_out.as_deref()) {
        trace.write_chrome_trace(Path::new(path))?;
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
    /// Parses the line once, on the event thread, and applies admission
    /// before the request costs a pool slot. Only analysis-class commands
    /// count toward `--max-inflight` or shed: the ops plane (ping,
    /// metrics, journal, shutdown) must stay responsive precisely when
    /// the server is overloaded, and malformed lines take the normal path
    /// so their error reporting is unchanged.
    fn on_line(&self, line: String, ready: Instant, responder: rtreact::Responder) {
        let state = &self.state;
        let parsed = Request::parse(&line);
        let analysis = match &parsed {
            Ok(request) if request.cmd.is_analysis() => {
                let inflight = state.inflight.load(Ordering::SeqCst);
                if inflight >= state.max_inflight {
                    state.metrics.record_shed(request.cmd.endpoint());
                    responder.send(err_response_coded(
                        request.id,
                        "overloaded",
                        &format!(
                            "server at capacity ({inflight} requests in flight, --max-inflight \
                             {}); retry later",
                            state.max_inflight
                        ),
                    ));
                    return;
                }
                state.inflight.fetch_add(1, Ordering::SeqCst);
                true
            }
            _ => false,
        };
        let state = Arc::clone(state);
        self.pool.execute(move || {
            // Run the request with the server's analysis pool installed so
            // nested `rtpar` fan-out inside the analyses lands there.
            let (response, shutdown) =
                state.analysis.install(|| handle_request(&state, parsed, ready));
            if analysis {
                state.inflight.fetch_sub(1, Ordering::SeqCst);
            }
            let control =
                if shutdown { rtreact::Control::Shutdown } else { rtreact::Control::Continue };
            responder.send_with(response, control);
        });
    }
}

/// Executes one parsed request line; returns the response line and
/// whether this request asked the server to shut down. `ready` is the
/// instant the line was fully framed by the reactor, so `ready.elapsed()`
/// at pickup is the readiness-to-dispatch queue wait (the parse
/// included) the flight recorder attributes. Every request — including
/// malformed ones — flies through the always-on [`FlightRecorder`].
fn handle_request(
    state: &ServerState,
    parsed: Result<Request, ParseError>,
    ready: Instant,
) -> (String, bool) {
    let queue_us = ready.elapsed().as_micros() as u64;
    let request = match parsed {
        Ok(request) => request,
        Err(error) => {
            state.flight.begin("invalid", queue_us).finish(false);
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
                state.flight.begin(endpoint, queue_us).finish(false);
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
    let _trace = state.trace.clone().map(rtobs::begin_with);
    let scope = state.flight.begin(endpoint, queue_us);
    let (response, ok, shutdown) = {
        // The whole-request span: attributed to the frame's `request`
        // stage, and the root of the `--trace-out` recording's tree.
        let _request_span = rtobs::span_labeled("request", || endpoint.to_string());
        match &request.cmd {
            Command::Ping => (ok_response(id, "pong"), true, false),
            Command::Metrics => (ok_response_with(id, "metrics", metrics(state)), true, false),
            Command::Journal { n } => {
                let records = state.flight.journal(n.unwrap_or(32) as usize);
                let rows = records.iter().map(record_json).collect();
                (ok_response_with(id, "journal", Json::Arr(rows)), true, false)
            }
            Command::Shutdown => {
                (ok_response(id, "draining in-flight work, then exiting"), true, true)
            }
            Command::Wcet(_) | Command::Crpd(_) | Command::Wcrt(_) | Command::Sim { .. } => {
                match analyze(state, &request.cmd) {
                    Ok(output) => (ok_response(id, &output), true, false),
                    Err(error) => (err_response(id, &error.to_string()), false, false),
                }
            }
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
    scope.finish(ok);
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

/// One flight record as a `journal` row.
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
    ])
}

/// Executes a `batch` request: every item runs through the analysis
/// pool's indexed fan-out ([`rtpar::par_map_range`]), so results come
/// back in item order deterministically at any pool size. The response
/// is one `result` frame per item plus a final `done` frame, returned as
/// one newline-joined block; the whole request counts as `ok` only when
/// every item succeeded.
fn run_batch(state: &ServerState, id: Option<u64>, items: &[Command]) -> (String, bool) {
    let results: Vec<Result<String, CliError>> =
        rtpar::par_map_range(items.len(), |i| analyze(state, &items[i]));
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

/// The `metrics` payload, the server's one ops snapshot: uptime,
/// per-endpoint counters and latency quantiles (shed and deadline-miss
/// counters merged in), per-stage cache counters and attributed wall
/// time, the explore gauges, the analysis-pool shape, the admission
/// gauges and the flight recorder's record count, all from always-on
/// collectors.
fn metrics(state: &ServerState) -> Json {
    let rows = state.metrics.endpoint_rows(&state.flight);
    let shed_total = rows.iter().map(|row| row.shed).sum::<u64>();
    let endpoints = rows
        .into_iter()
        .map(|row| {
            let e = &row.flight;
            let json = Json::obj([
                ("count", Json::from(e.count)),
                ("errors", Json::from(e.errors)),
                ("shed", Json::from(row.shed)),
                ("deadline_misses", Json::from(row.deadline_misses)),
                ("sum_us", Json::from(e.hist.sum_us)),
                ("max_us", Json::from(e.max_us)),
                ("p50_us", Json::from(e.p50_us)),
                ("p90_us", Json::from(e.p90_us)),
                ("p95_us", Json::from(e.hist.quantile_upper_bound(0.95))),
                ("p99_us", Json::from(e.p99_us)),
            ]);
            (e.endpoint.to_string(), json)
        })
        .collect();
    let stages = state
        .store
        .stage_stats()
        .into_iter()
        .map(|s| {
            let json = Json::obj([
                ("hits", Json::from(s.hits)),
                ("misses", Json::from(s.misses)),
                ("entries", Json::from(s.entries)),
                ("single_flight_waits", Json::from(s.single_flight_waits)),
            ]);
            (s.stage.to_string(), json)
        })
        .collect();
    let stage_ns = state
        .flight
        .stage_totals()
        .into_iter()
        .filter(|(_, ns)| *ns != 0)
        .map(|(stage, ns)| (stage.to_string(), Json::from(ns)))
        .collect();
    let (explore_points, explore_front_size) = state.metrics.explore();
    Json::obj([
        ("uptime_secs", Json::from(state.flight.uptime_secs())),
        ("endpoints", Json::Obj(endpoints)),
        ("stages", Json::Obj(stages)),
        ("stage_ns", Json::Obj(stage_ns)),
        (
            "explore",
            Json::obj([
                ("points_total", Json::from(explore_points)),
                ("front_size", Json::from(explore_front_size)),
            ]),
        ),
        (
            "analysis_pool",
            Json::obj([
                ("threads", Json::from(state.analysis.threads() as u64)),
                ("background_workers", Json::from(state.analysis.background_workers() as u64)),
            ]),
        ),
        (
            "admission",
            Json::obj([
                ("inflight", Json::from(state.inflight.load(Ordering::SeqCst))),
                ("max_inflight", Json::from(state.max_inflight)),
                ("shed_total", Json::from(shed_total)),
                ("open_connections", Json::from(state.react_stats.connections_open())),
                ("event_threads", Json::from(state.react_stats.event_threads() as u64)),
            ]),
        ),
        ("records_total", Json::from(state.flight.records_total())),
    ])
}

/// Runs one `wcet`/`crpd`/`wcrt`/`sim` command against the shared store
/// through the same `rtcli` function the one-shot CLI calls, so the
/// output is byte-identical to `trisc`'s for the same inputs.
fn analyze(state: &ServerState, cmd: &Command) -> Result<String, CliError> {
    let store = &state.store;
    match cmd {
        Command::Wcet(payload) => {
            let (spec, sources) = resolve(payload)?;
            rtcli::run_wcet(store, &spec, &sources)
        }
        Command::Crpd(payload) => {
            let (spec, sources) = resolve(payload)?;
            rtcli::run_crpd(store, &spec, &sources)
        }
        Command::Wcrt(payload) => {
            let (spec, sources) = resolve(payload)?;
            rtcli::run_wcrt(store, &spec, &sources, false)
        }
        Command::Sim { payload, horizon } => {
            let (spec, sources) = resolve(payload)?;
            rtcli::run_sim(store, &spec, &sources, *horizon)
        }
        // The parser admits only the four arms above into a batch.
        other => Err(CliError::Usage(format!("cmd `{}` is not batchable", other.endpoint()))),
    }
}

/// Parses the payload's spec (with an empty base dir, so task `FILE`
/// fields stay the literal keys of `sources`) and resolves every task's
/// source from `sources`, in spec order. The server never reads its own
/// filesystem: a `FILE` missing from `sources` is a [`CliError::Spec`]
/// naming the task and the key.
fn resolve(payload: &SpecPayload) -> Result<(SystemSpec, Vec<String>), CliError> {
    let spec = SystemSpec::parse(&payload.spec, Path::new(""))?;
    let sources = spec
        .tasks
        .iter()
        .map(|task| {
            let key = task.source.to_string_lossy();
            payload.sources.get(key.as_ref()).cloned().ok_or_else(|| {
                CliError::Spec(format!(
                    "task `{}`: source `{key}` is not in the request's `sources`",
                    task.name
                ))
            })
        })
        .collect::<Result<_, CliError>>()?;
    Ok((spec, sources))
}

/// Runs a design-space sweep against the server's shared artifact store
/// through [`rtexplore::explore`] — the path `trisc explore` takes — and
/// returns the streamed NDJSON frames (one per evaluated batch plus the
/// final front frame) as a newline-separated block. Points share
/// `assemble`/`analyze` artifacts and `crpd_cell` entries with every
/// other request the server has served; every stage deduplicates
/// concurrent lookups of one key (single-flight), across sweeps too.
fn run_explore(
    state: &ServerState,
    id: Option<u64>,
    payload: &SpecPayload,
    grid_text: &str,
) -> Result<String, CliError> {
    let grid = rtexplore::Grid::parse(grid_text)?;
    let (spec, sources) = resolve(payload)?;
    let id_json = || id.map_or(Json::Null, Json::from);
    let mut frames = String::new();
    let explored = rtexplore::explore(&state.store, &spec, &sources, &grid, |batch, front| {
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
    let outcome = &explored.outcome;
    state.metrics.record_explore(outcome.points as u64, outcome.front.len() as u64);
    let front: Vec<Json> =
        outcome.front.members().iter().map(|m| Json::from(m.config.index as u64)).collect();
    let done = Json::obj([
        ("id", id_json()),
        ("ok", Json::Bool(true)),
        ("event", Json::from("done")),
        ("points_total", Json::from(outcome.points as u64)),
        ("front", Json::Arr(front)),
        ("front_size", Json::from(outcome.front.len() as u64)),
        ("output", Json::from(explored.front_report.as_str())),
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
    fn metrics_snapshot_shape() {
        let opts = ServeOptions { threads: 4, max_inflight: 256, ..ServeOptions::default() };
        let state = ServerState::with_options(&opts);
        state.flight.begin("wcrt", 0).finish(true);
        {
            let scope = state.flight.begin("wcrt", 0);
            std::thread::sleep(Duration::from_millis(1));
            scope.finish(false);
        }
        state.flight.begin("ping", 0).finish(true);
        state.metrics.record_shed("wcrt");
        state.metrics.record_shed("wcrt");
        state.metrics.record_deadline_miss("wcrt");
        state.metrics.record_shed("crpd"); // shed only: never flew
        state.metrics.record_explore(64, 5);
        state.metrics.record_explore(36, 3);
        state.inflight.store(1, Ordering::SeqCst);
        let snap = metrics(&state);
        let endpoints = snap.get("endpoints").unwrap();
        let wcrt = endpoints.get("wcrt").unwrap();
        assert_eq!(wcrt.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(wcrt.get("errors").unwrap().as_u64(), Some(1));
        assert_eq!(wcrt.get("shed").unwrap().as_u64(), Some(2), "sheds are not requests");
        assert_eq!(wcrt.get("deadline_misses").unwrap().as_u64(), Some(1));
        // Latency is the flight recorder's histogram, read verbatim.
        let recorded = state.flight.endpoints().into_iter().find(|e| e.endpoint == "wcrt").unwrap();
        assert_eq!(wcrt.get("sum_us").unwrap().as_u64(), Some(recorded.hist.sum_us));
        assert_eq!(wcrt.get("max_us").unwrap().as_u64(), Some(recorded.max_us));
        assert!(recorded.max_us >= 1_000, "the slept request is the max");
        assert_eq!(wcrt.get("p50_us").unwrap().as_u64(), Some(recorded.p50_us));
        assert_eq!(wcrt.get("p90_us").unwrap().as_u64(), Some(recorded.p90_us));
        assert_eq!(
            wcrt.get("p95_us").unwrap().as_u64(),
            Some(recorded.hist.quantile_upper_bound(0.95))
        );
        assert_eq!(wcrt.get("p99_us").unwrap().as_u64(), Some(recorded.p99_us));
        assert!(recorded.p99_us >= recorded.max_us);
        // A shed-only endpoint still gets a row, with zero latency.
        let crpd = endpoints.get("crpd").unwrap();
        assert_eq!(crpd.get("shed").unwrap().as_u64(), Some(1));
        for key in ["count", "errors", "sum_us", "max_us", "p50_us", "p90_us", "p95_us", "p99_us"] {
            assert_eq!(crpd.get(key).unwrap().as_u64(), Some(0), "{key}");
        }
        let stages = snap.get("stages").unwrap();
        for stage in ["assemble", "analyze", "crpd_cell"] {
            let s = stages.get(stage).unwrap_or_else(|| panic!("stage {stage} in metrics"));
            for key in ["hits", "misses", "entries", "single_flight_waits"] {
                assert_eq!(s.get(key).unwrap().as_u64(), Some(0), "{stage} {key}");
            }
        }
        assert_eq!(snap.get("stage_ns"), Some(&Json::Obj(Default::default())));
        assert!(snap.get("uptime_secs").unwrap().as_u64().is_some());
        let adm = snap.get("admission").unwrap();
        assert_eq!(adm.get("inflight").unwrap().as_u64(), Some(1));
        assert_eq!(adm.get("max_inflight").unwrap().as_u64(), Some(256));
        assert_eq!(adm.get("shed_total").unwrap().as_u64(), Some(3), "the rows' sheds summed");
        assert_eq!(adm.get("open_connections").unwrap().as_u64(), Some(0));
        assert_eq!(adm.get("event_threads").unwrap().as_u64(), Some(0), "no reactor running");
        let explore = snap.get("explore").unwrap();
        assert_eq!(explore.get("points_total").unwrap().as_u64(), Some(100));
        assert_eq!(explore.get("front_size").unwrap().as_u64(), Some(3), "latest sweep wins");
        let pool = snap.get("analysis_pool").unwrap();
        assert_eq!(pool.get("threads").unwrap().as_u64(), Some(4));
        assert_eq!(pool.get("background_workers").unwrap().as_u64(), Some(3));
        assert_eq!(snap.get("records_total").unwrap().as_u64(), Some(3));
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
        let sources = spec.read_sources().unwrap();
        let one_shot = rtcli::run_wcrt(&ArtifactStore::default(), &spec, &sources, false);
        assert_eq!(first, one_shot.unwrap());
        std::fs::remove_dir_all(&dir).ok();

        let metrics = replies[2].get("metrics").unwrap();
        let cache = metrics.get("stages").unwrap().get("analyze").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(2), "second request hits both tasks");
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(2));
        let wcrt = metrics.get("endpoints").unwrap().get("wcrt").unwrap();
        assert_eq!(wcrt.get("count").unwrap().as_u64(), Some(2));
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

//! Reactor soak for the `rtserver` analysis daemon.
//!
//! ```text
//! # Against a running server:
//! trisc serve --port 7227 &
//! cargo run --release -p rtbench --bin loadgen -- --addr 127.0.0.1:7227 --connections 2000
//!
//! # Self-contained (spawns an in-process server on an ephemeral port):
//! cargo run --release -p rtbench --bin loadgen -- --connections 2000 --active 64 --requests 50
//! ```
//!
//! Opens `--connections` sockets (raising `RLIMIT_NOFILE` as needed),
//! keeps most of them idle, drives `--requests` wcrt requests over each
//! of `--active` of them, and proves the idle pool still answers `ping`
//! after the storm. Responses are tallied tolerantly — `overloaded` and
//! `deadline_exceeded` are expected outcomes under admission control,
//! while any framing or transport failure is a protocol error and fails
//! the run. The summary (p99 latency, shed rate, peak RSS, per-stage
//! `rtobs` span durations of everything that ran in this process) lands
//! in `BENCH_async.json` (`--json-out PATH` to relocate it);
//! `--max-shed-rate R` additionally gates on the observed shed fraction.
//! Open-connection count is the one thing this measures that perfbench's
//! single-caller `serve_edit` cannot.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Instant;

use rtcli::ServeOptions;
use rtserver::json::Json;
use rtserver::Server;

const SPEC: &str = "cache 64 2 16\ncmiss 20\nccs 50\ntask hi hi.s 5000 1\ntask lo lo.s 50000 2\n";
const TASK_HI: &str = ".data 0x100000\nbuf: .word 1,2,3,4\n.text 0x1000\nstart: li r1, buf\nli r3, 4\nloop: ld r2, 0(r1)\naddi r1, r1, 4\naddi r3, r3, -1\nbne r3, r0, loop\n.bound loop, 4\nhalt\n";
const TASK_LO: &str = ".data 0x100400\nbuf: .word 7,8\n.text 0x2000\nstart: li r1, buf\nld r2, 0(r1)\nld r4, 4(r1)\nadd r2, r2, r4\nhalt\n";

struct Options {
    addr: Option<String>,
    /// Open sockets, most of them idle.
    connections: usize,
    requests: usize,
    /// Connections that drive traffic.
    active: usize,
    /// `--max-shed-rate R`: fail unless the fraction of requests answered
    /// `overloaded` stays at or below `R`.
    max_shed_rate: Option<f64>,
    json_out: String,
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options {
        addr: None,
        connections: 4,
        requests: 100,
        active: 64,
        max_shed_rate: None,
        json_out: "BENCH_async.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => opts.addr = Some(value("--addr")?),
            "--connections" => {
                opts.connections =
                    value("--connections")?.parse().map_err(|e| format!("--connections: {e}"))?;
            }
            "--requests" => {
                opts.requests =
                    value("--requests")?.parse().map_err(|e| format!("--requests: {e}"))?;
            }
            "--active" => {
                opts.active = value("--active")?.parse().map_err(|e| format!("--active: {e}"))?;
            }
            "--max-shed-rate" => {
                let rate: f64 = value("--max-shed-rate")?
                    .parse()
                    .map_err(|e| format!("--max-shed-rate: {e}"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err("--max-shed-rate must be in [0, 1]".to_string());
                }
                opts.max_shed_rate = Some(rate);
            }
            "--json-out" => opts.json_out = value("--json-out")?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if opts.connections == 0 || opts.requests == 0 || opts.active == 0 {
        return Err("--connections, --requests and --active must be positive".to_string());
    }
    Ok(opts)
}

/// The recorder's per-stage span totals as a JSON object:
/// `{"wcrt": {"count": 8, "total_us": 1234}, ...}`.
fn stage_durations_json(session: &rtobs::Session) -> Json {
    Json::Obj(
        session
            .recorder()
            .stage_durations()
            .into_iter()
            .map(|(stage, (count, total_us))| {
                let entry =
                    Json::obj([("count", Json::from(count)), ("total_us", Json::from(total_us))]);
                (stage.to_string(), entry)
            })
            .collect(),
    )
}

fn wcrt_request(id: u64) -> String {
    Json::obj([
        ("id", Json::from(id)),
        ("cmd", Json::from("wcrt")),
        ("spec", Json::from(SPEC)),
        ("sources", Json::obj([("hi.s", Json::from(TASK_HI)), ("lo.s", Json::from(TASK_LO))])),
    ])
    .encode()
}

fn one_shot(addr: &str, line: &str) -> Result<Json, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{line}").and_then(|()| writer.flush()).map_err(|e| e.to_string())?;
    let mut reply = String::new();
    reader.read_line(&mut reply).map_err(|e| e.to_string())?;
    Json::parse(reply.trim_end()).map_err(|e| e.to_string())
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Outcome tally of one soak client, merged across all active clients.
#[derive(Default)]
struct SoakTally {
    ok: u64,
    shed: u64,
    deadline_exceeded: u64,
    protocol_errors: u64,
    /// Latencies of successful requests only, microseconds.
    latencies: Vec<u64>,
}

impl SoakTally {
    fn merge(&mut self, other: SoakTally) {
        self.ok += other.ok;
        self.shed += other.shed;
        self.deadline_exceeded += other.deadline_exceeded;
        self.protocol_errors += other.protocol_errors;
        self.latencies.extend(other.latencies);
    }

    fn attempts(&self) -> u64 {
        self.ok + self.shed + self.deadline_exceeded + self.protocol_errors
    }

    fn shed_rate(&self) -> f64 {
        if self.attempts() == 0 {
            0.0
        } else {
            self.shed as f64 / self.attempts() as f64
        }
    }
}

/// Connects, retrying transient failures (listen-backlog overflow, fd
/// churn) for up to ~10 s — opening 10k+ sockets in a tight loop is
/// exactly the scenario accept queues drop connections under.
fn connect_with_retry(addr: &str) -> Result<TcpStream, String> {
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            Err(e) => return Err(format!("connect {addr}: {e}")),
        }
    }
}

/// Round-trips one `ping` over an already-open connection, proving the
/// reactor still multiplexes it.
fn ping(stream: &TcpStream) -> Result<(), String> {
    let mut writer = BufWriter::new(stream);
    writeln!(writer, r#"{{"cmd":"ping"}}"#)
        .and_then(|()| writer.flush())
        .map_err(|e| format!("ping write: {e}"))?;
    drop(writer);
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).map_err(|e| format!("ping read: {e}"))?;
    let reply = Json::parse(line.trim_end()).map_err(|e| format!("ping reply: {e}"))?;
    match reply.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(()),
        _ => Err(format!("ping rejected: {}", line.trim_end())),
    }
}

/// One active soak connection: sends `requests` wcrt requests in
/// lockstep, classifying every response instead of failing fast.
/// `overloaded` and `deadline_exceeded` are admission-control outcomes;
/// anything else that is not `ok:true` — and any transport or framing
/// failure — counts as a protocol error.
fn soak_client(addr: &str, requests: usize) -> Result<SoakTally, String> {
    let stream = connect_with_retry(addr)?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut reader = BufReader::new(stream);
    let mut tally = SoakTally::default();
    for id in 0..requests {
        let started = Instant::now();
        if writeln!(writer, "{}", wcrt_request(id as u64)).and_then(|()| writer.flush()).is_err() {
            tally.protocol_errors += 1;
            break; // connection is gone; the remaining requests never happened
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => {
                tally.protocol_errors += 1;
                break;
            }
        }
        let Ok(reply) = Json::parse(line.trim_end()) else {
            tally.protocol_errors += 1;
            break; // framing is corrupt; nothing downstream is trustworthy
        };
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            tally.ok += 1;
            tally.latencies.push(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
        } else {
            match reply.get("code").and_then(Json::as_str) {
                Some("overloaded") => tally.shed += 1,
                Some("deadline_exceeded") => tally.deadline_exceeded += 1,
                _ => tally.protocol_errors += 1,
            }
        }
    }
    Ok(tally)
}

/// Peak resident set of this process (`VmHWM`), kibibytes. With the
/// in-process server this covers client *and* server memory.
fn peak_rss_kb() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.trim_start_matches("VmHWM:").trim().trim_end_matches("kB").trim().parse().ok()
}

/// The open-connection reactor soak. See the module docs for the shape
/// of the run; gates (always: zero protocol errors; optional:
/// `--max-shed-rate`) fire after `BENCH_async.json` is written so a
/// failed run still leaves its evidence.
fn run() -> Result<(), String> {
    let opts = parse_options()?;
    // Record per-stage span durations for everything analyzed in this
    // process (the in-process server's work).
    let session = rtobs::begin();
    let (addr, local) = match &opts.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let serve = ServeOptions {
                host: "127.0.0.1".to_string(),
                port: 0,
                threads: 4,
                event_threads: 4,
                ..ServeOptions::default()
            };
            let handle = Server::spawn(&serve).map_err(|e| format!("spawn server: {e}"))?;
            (handle.addr().to_string(), Some(handle))
        }
    };
    let in_process = local.is_some();

    // Each open connection costs one client fd, plus one server fd when
    // the server shares this process. Raise the soft RLIMIT_NOFILE and
    // clamp the run to whatever the hard ceiling actually grants.
    let per_conn = if in_process { 2u64 } else { 1 };
    let margin = 256u64;
    let limit = rtreact::raise_nofile_limit(opts.connections as u64 * per_conn + margin)
        .map_err(|e| format!("raising RLIMIT_NOFILE: {e}"))?;
    let budget = usize::try_from(limit.saturating_sub(margin) / per_conn).unwrap_or(usize::MAX);
    println!("soak: RLIMIT_NOFILE raised to {limit} ({per_conn} fd(s) per connection)");
    let connections = opts.connections.min(budget.max(opts.active));
    if connections < opts.connections {
        println!(
            "soak: RLIMIT_NOFILE {limit} caps the run at {connections} connections \
             (asked for {})",
            opts.connections
        );
    }
    let active = opts.active.min(connections);
    let idle_target = connections - active;
    println!(
        "soak: {connections} connections ({active} active x {} requests, {idle_target} idle) \
         against {addr}{}",
        opts.requests,
        if in_process { " (in-process server, 4 event threads)" } else { "" },
    );

    // Open the idle pool from several threads: a serial loop pays a full
    // SYN-retransmit second for every listen-backlog drop, which adds up
    // to minutes at 10k sockets.
    let opened = Instant::now();
    let openers = 16.min(idle_target.max(1));
    let idle: Vec<TcpStream> = {
        let chunks: Vec<usize> = (0..openers)
            .map(|i| idle_target / openers + usize::from(i < idle_target % openers))
            .collect();
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|count| {
                let addr = addr.clone();
                std::thread::spawn(move || -> Result<Vec<TcpStream>, String> {
                    (0..count).map(|_| connect_with_retry(&addr)).collect()
                })
            })
            .collect();
        let mut pool = Vec::with_capacity(idle_target);
        for handle in handles {
            pool.extend(handle.join().map_err(|_| "idle opener panicked")??);
        }
        pool
    };
    println!("soak: {} idle connections open in {:.2?}", idle.len(), opened.elapsed());

    let started = Instant::now();
    let workers: Vec<_> = (0..active)
        .map(|_| {
            let addr = addr.clone();
            let requests = opts.requests;
            std::thread::spawn(move || soak_client(&addr, requests))
        })
        .collect();
    let mut tally = SoakTally::default();
    for worker in workers {
        tally.merge(worker.join().map_err(|_| "soak client panicked")??);
    }
    let elapsed = started.elapsed();

    // The idle pool must have survived the storm: round-trip a sample.
    for (i, stream) in idle.iter().take(8).enumerate() {
        ping(stream).map_err(|e| format!("idle connection {i} died during the soak: {e}"))?;
    }

    // Server-side admission picture while every connection is still open.
    let status = one_shot(&addr, r#"{"cmd":"statusz"}"#)?
        .get("status")
        .cloned()
        .ok_or("statusz reply missing payload")?;
    let field = |key: &str| status.get(key).and_then(Json::as_u64).unwrap_or(0);

    tally.latencies.sort_unstable();
    let shed_rate = tally.shed_rate();
    println!(
        "client side: {} ok / {} shed / {} deadline / {} protocol errors in {:.2?} \
         ({:.0} req/s, shed rate {:.4})",
        tally.ok,
        tally.shed,
        tally.deadline_exceeded,
        tally.protocol_errors,
        elapsed,
        tally.attempts() as f64 / elapsed.as_secs_f64(),
        shed_rate,
    );
    println!(
        "client side: ok latency p50 {} us / p95 {} us / p99 {} us",
        percentile(&tally.latencies, 0.50),
        percentile(&tally.latencies, 0.95),
        percentile(&tally.latencies, 0.99),
    );
    let rss = peak_rss_kb();
    println!(
        "server side: {} open connections, {} event threads, {} shed total; \
         peak RSS {} kB{}",
        field("open_connections"),
        field("event_threads"),
        field("shed_total"),
        rss.unwrap_or(0),
        if in_process { " (client+server)" } else { " (client only)" },
    );

    drop(idle); // close the pool before asking the server to drain
    if let Some(handle) = local {
        one_shot(&addr, r#"{"cmd":"shutdown"}"#)?;
        handle.join().map_err(|e| e.to_string())?;
    }

    let report = Json::obj([
        ("mode", Json::from("async_soak")),
        ("in_process_server", Json::Bool(in_process)),
        ("nofile_limit", Json::from(limit)),
        ("connections", Json::from(connections as u64)),
        ("idle_connections", Json::from(idle_target as u64)),
        ("active_connections", Json::from(active as u64)),
        ("requests_per_active", Json::from(opts.requests as u64)),
        ("ok", Json::from(tally.ok)),
        ("shed", Json::from(tally.shed)),
        ("deadline_exceeded", Json::from(tally.deadline_exceeded)),
        ("protocol_errors", Json::from(tally.protocol_errors)),
        ("shed_rate", Json::Num(shed_rate)),
        ("elapsed_secs", Json::Num(elapsed.as_secs_f64())),
        ("requests_per_sec", Json::Num(tally.attempts() as f64 / elapsed.as_secs_f64())),
        (
            "latency_us",
            Json::obj([
                ("p50", Json::from(percentile(&tally.latencies, 0.50))),
                ("p95", Json::from(percentile(&tally.latencies, 0.95))),
                ("p99", Json::from(percentile(&tally.latencies, 0.99))),
            ]),
        ),
        ("peak_rss_kb", rss.map_or(Json::Null, Json::from)),
        ("peak_rss_covers_server", Json::Bool(in_process)),
        (
            "server",
            Json::obj([
                ("open_connections", Json::from(field("open_connections"))),
                ("event_threads", Json::from(field("event_threads"))),
                ("max_inflight", Json::from(field("max_inflight"))),
                ("shed_total", Json::from(field("shed_total"))),
            ]),
        ),
        ("stages", stage_durations_json(&session)),
    ]);
    std::fs::write(&opts.json_out, report.encode() + "\n")
        .map_err(|e| format!("{}: {e}", opts.json_out))?;
    println!("wrote {}", opts.json_out);

    if tally.protocol_errors > 0 {
        return Err(format!("{} protocol errors (required: 0)", tally.protocol_errors));
    }
    if let Some(max) = opts.max_shed_rate {
        if shed_rate > max {
            return Err(format!("shed rate {shed_rate:.4} > allowed {max:.4}"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("loadgen: {message}");
            eprintln!(
                "usage: loadgen [--addr HOST:PORT] [--connections N] [--requests M] [--active K] \
                 [--max-shed-rate R] [--json-out PATH]"
            );
            ExitCode::from(2)
        }
    }
}

//! `serve_edit`: an in-process rtserver answers `wcrt` requests over
//! loopback NDJSON from one closed-loop caller — the edit-and-reanalyze
//! loop the artifact store was built for. Three requests in four are
//! params-only edits (new periods and priorities) of systems warmed in
//! set-up; every fourth carries a never-seen synthetic task, which forces
//! assemble, analyze and a store insert. The fixed 3:1 interleave puts
//! p50 among the reads and p90 among the writes, neither near the 75%
//! boundary.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;

use crpd::{AnalyzedProgram, AnalyzedTask, CrpdCellCache, TaskParams};
use rtcli::{ServeOptions, SystemSpec};
use rtserver::json::Json;
use rtserver::{Server, ServerHandle};
use rtworkloads::synthetic::{synthetic_task, SyntheticSpec};

use crate::layers;
use crate::measure::{self, quantile, Outcome, SplitMix, RSS_AT_OP};
use crate::Args;

const SYSTEMS: usize = 4;
const TASKS: usize = 3;
/// Requests per cycle: three reads, then one write.
const CYCLE: usize = 4;
/// Traced runs fetch the server's journal after every block this long.
const BLOCK: usize = 64;
const SPEC_HEAD: &str = "cache 64 2 16\ncmiss 20\nccs 120\n";

/// One warmed system: `(name, assembly source, base period)` per task.
struct System {
    tasks: Vec<(String, String, u64)>,
}

/// The assembly source of a synthetic scan task: `inner` words of a short
/// buffer scanned `outer` times, so the trace grows with the loop counts
/// while the source and the data stay small.
fn synthetic(name: String, slot: usize, words: usize, outer: u32, inner: u32, seed: u64) -> String {
    let spec = SyntheticSpec {
        name,
        code_base: 0x1_0000 + 0x800 * slot as u64,
        data_base: 0x10_0000 + 0x1000 * slot as u64,
        data_words: words,
        outer_iters: outer,
        inner_iters: inner,
        stride_words: 2,
        two_paths: false,
        padding_instrs: 8,
        seed,
    };
    rtprogram::asm::disassemble(&synthetic_task(&spec))
}

/// The warmed systems. Their tasks loop long, so every CRPD cell that
/// has one of them as the preempted task sweeps a long trace.
fn systems() -> Vec<System> {
    (0..SYSTEMS)
        .map(|s| System {
            tasks: (0..TASKS)
                .map(|t| {
                    let name = format!("s{s}t{t}");
                    let outer = 160 + 32 * ((s + t) % 2) as u32;
                    let source =
                        synthetic(name.clone(), t, 2048, outer, 32, (s * TASKS + t) as u64);
                    (name, source, 40_000 << t)
                })
                .collect(),
        })
        .collect()
}

/// One request of the stream, derived from the seed and its index.
struct Edit {
    system: usize,
    /// `(period, priority)` per task.
    params: Vec<(u64, u32)>,
    /// A write replaces the first task with this fresh one, at the
    /// highest priority.
    fresh: Option<(String, String)>,
}

fn edit(seed: u64, index: usize, write: bool) -> Edit {
    let mut rng = SplitMix::new(seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let system = index / CYCLE % SYSTEMS;
    let mut priorities = [1, 2, 3];
    // A write's fresh task keeps priority 1; the rest are shuffled.
    let fixed = usize::from(write);
    for i in (fixed + 1..TASKS).rev() {
        priorities.swap(i, rng.range(fixed as u64, i as u64) as usize);
    }
    let params =
        (0..TASKS).map(|t| ((40_000 << t) * rng.range(80, 120) / 100, priorities[t])).collect();
    let fresh = write.then(|| {
        let name = format!("w{seed}x{index}");
        // A short loop: its artifact is small, so the store, which never
        // evicts, grows slowly. The write's cost is in the new CRPD cells
        // of the two long tasks it preempts.
        (name.clone(), synthetic(name, 0, 64, 1, 8, rng.next_u64()))
    });
    Edit { system, params, fresh }
}

impl Edit {
    /// `(name, source)` per task, with the fresh task in the first slot.
    fn tasks<'a>(&'a self, systems: &'a [System]) -> Vec<(&'a str, &'a str)> {
        let mut tasks: Vec<(&str, &str)> =
            systems[self.system].tasks.iter().map(|(n, s, _)| (n.as_str(), s.as_str())).collect();
        if let Some((name, source)) = &self.fresh {
            tasks[0] = (name, source);
        }
        tasks
    }

    fn spec_text(&self, systems: &[System]) -> String {
        let mut spec = SPEC_HEAD.to_string();
        for ((name, _), (period, priority)) in self.tasks(systems).iter().zip(&self.params) {
            spec.push_str(&format!("task {name} {name}.s {period} {priority}\n"));
        }
        spec
    }

    fn request_line(&self, id: usize, systems: &[System]) -> String {
        let sources = self
            .tasks(systems)
            .iter()
            .map(|(name, source)| (format!("{name}.s"), Json::from(*source)))
            .collect();
        Json::obj([
            ("id", Json::from(id as u64)),
            ("cmd", Json::from("wcrt")),
            ("spec", Json::Str(self.spec_text(systems))),
            ("sources", Json::Obj(sources)),
        ])
        .encode()
    }
}

/// One NDJSON connection to the server.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(handle: &ServerHandle) -> Conn {
        let stream = TcpStream::connect(handle.addr()).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let writer = stream.try_clone().expect("clone the stream");
        Conn { reader: BufReader::new(stream), writer, line: String::new() }
    }

    /// Sends one line and returns the raw reply line.
    fn call(&mut self, request: &str) -> &str {
        self.writer.write_all(request.as_bytes()).expect("send request");
        self.writer.write_all(b"\n").expect("send request");
        self.line.clear();
        self.reader.read_line(&mut self.line).expect("read reply");
        self.reply()
    }

    /// The last reply line.
    fn reply(&self) -> &str {
        self.line.trim_end()
    }

    fn json(&mut self, request: &str) -> Json {
        Json::parse(self.call(request)).expect("the server replies with JSON")
    }

    fn metrics(&mut self) -> Json {
        let reply = self.json(r#"{"cmd":"metrics"}"#);
        reply.get("metrics").cloned().expect("metrics reply")
    }

    /// The journal rows of the last `n` `wcrt` requests, oldest first.
    fn journal_wcrt(&mut self, n: usize) -> Vec<Json> {
        // Room for the ops requests interleaved with the wcrt ones.
        let reply = self.json(&format!(r#"{{"cmd":"journal","n":{}}}"#, n + 8));
        let Some(Json::Arr(rows)) = reply.get("journal") else {
            panic!("journal reply: {reply:?}")
        };
        let wcrt: Vec<Json> = rows
            .iter()
            .filter(|r| r.get("endpoint").and_then(Json::as_str) == Some("wcrt"))
            .cloned()
            .collect();
        wcrt[wcrt.len().saturating_sub(n)..].to_vec()
    }
}

/// A running server with its two client connections: `requests` carries
/// the timed stream, `ops` the metrics and journal queries.
struct Served {
    handle: Option<ServerHandle>,
    requests: Conn,
    ops: Conn,
}

impl Served {
    fn spawn() -> Served {
        let opts = ServeOptions {
            host: "127.0.0.1".to_string(),
            port: 0,
            threads: 1,
            event_threads: 1,
            ..ServeOptions::default()
        };
        let handle = Server::spawn(&opts).expect("spawn the in-process server");
        let requests = Conn::open(&handle);
        let ops = Conn::open(&handle);
        Served { handle: Some(handle), requests, ops }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        // No panics here: a failed shutdown shows as a failed join.
        let _ = self.ops.writer.write_all(b"{\"cmd\":\"shutdown\"}\n");
        let _ = self.ops.reader.read_line(&mut self.ops.line);
        if let Some(handle) = self.handle.take() {
            if let Err(e) = handle.join() {
                eprintln!("serve_edit: server exited with {e}");
            }
        }
    }
}

/// The one-shot `rtcli` rendering of each request, for comparison with
/// the server's replies.
struct Reference {
    /// Artifacts of the warmed systems' tasks, by `(name, source)`.
    warmed: HashMap<(String, String), Arc<AnalyzedProgram>>,
    cells: CrpdCellCache,
}

impl Reference {
    fn new(systems: &[System]) -> Reference {
        let warmed = systems
            .iter()
            .flat_map(|s| &s.tasks)
            .map(|(name, source, _)| {
                ((name.clone(), source.clone()), Arc::new(analyze(name, source)))
            })
            .collect();
        Reference { warmed, cells: CrpdCellCache::default() }
    }

    fn output(&self, edit: &Edit, systems: &[System]) -> String {
        let spec = SystemSpec::parse(&edit.spec_text(systems), Path::new("")).expect("spec parses");
        let tasks: Vec<AnalyzedTask> = edit
            .tasks(systems)
            .iter()
            .zip(&edit.params)
            .map(|((name, source), (period, priority))| {
                let key = (name.to_string(), source.to_string());
                let artifact = match self.warmed.get(&key) {
                    Some(artifact) => Arc::clone(artifact),
                    None => Arc::new(analyze(name, source)),
                };
                AnalyzedTask::bind(artifact, TaskParams { period: *period, priority: *priority })
            })
            .collect();
        rtcli::cmd_wcrt_cached(&spec, &tasks, &self.cells).expect("the reference renders")
    }
}

fn analyze(name: &str, source: &str) -> AnalyzedProgram {
    let program = rtprogram::asm::assemble(name, source).expect("synthetic sources assemble");
    let spec = SystemSpec::parse(&format!("{SPEC_HEAD}task a a.s 1 1\n"), Path::new(""))
        .expect("spec parses");
    let geometry = spec.cache.geometry().expect("valid geometry");
    AnalyzedProgram::analyze(&program, geometry, spec.cache.model())
        .expect("synthetic tasks analyze")
}

fn hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// The reply's output, or `None` for an error, shed or malformed reply.
fn output(reply: &str) -> Option<String> {
    let reply = Json::parse(reply).ok()?;
    if reply.get("ok")?.as_bool()? {
        reply.get("output")?.as_str().map(str::to_string)
    } else {
        None
    }
}

struct Setup {
    systems: Vec<System>,
    served: Served,
    failures: Vec<String>,
}

/// Builds the systems, spawns the server and warms it: every system
/// under every priority order (so reads never miss a store stage) and a
/// few writes. The warm-up replies are checked against the reference.
fn setup(seed: u64, pool: &rtpar::Pool) -> Setup {
    let systems = systems();
    let mut served = Served::spawn();
    let mut failures = Vec::new();
    let reference = pool.install(|| Reference::new(&systems));
    let orders = [[1, 2, 3], [1, 3, 2], [2, 1, 3], [2, 3, 1], [3, 1, 2], [3, 2, 1]];
    let mut warm = Vec::new();
    for system in 0..SYSTEMS {
        for order in orders {
            let params = (0..TASKS).map(|t| (40_000 << t, order[t])).collect();
            warm.push(Edit { system, params, fresh: None });
        }
    }
    for i in 0..CYCLE {
        warm.push(edit(!seed, i * CYCLE + CYCLE - 1, true));
    }
    for (i, e) in warm.iter().enumerate() {
        let reply = output(served.requests.call(&e.request_line(i, &systems)));
        let expected = pool.install(|| reference.output(e, &systems));
        if reply.as_deref() != Some(expected.as_str()) {
            failures.push(format!("warm-up request {i} differs from the one-shot rtcli output"));
        }
    }
    Setup { systems, served, failures }
}

/// Store counters from a `metrics` snapshot, for deltas.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Store {
    assemble_misses: u64,
    assemble_hits: u64,
    analyze_misses: u64,
    analyze_hits: u64,
    cell_hits: u64,
    cell_misses: u64,
    errors: u64,
    shed: u64,
}

impl Store {
    fn read(metrics: &Json) -> Store {
        let stage = |stage: &str, field: &str| {
            metrics
                .get("stages")
                .and_then(|s| s.get(stage))
                .and_then(|s| s.get(field))
                .and_then(Json::as_u64)
        };
        let wcrt = |field: &str| {
            metrics
                .get("endpoints")
                .and_then(|e| e.get("wcrt"))
                .and_then(|w| w.get(field))
                .and_then(Json::as_u64)
        };
        Store {
            assemble_misses: stage("assemble", "misses").unwrap_or(0),
            assemble_hits: stage("assemble", "hits").unwrap_or(0),
            analyze_misses: stage("analyze", "misses").unwrap_or(0),
            analyze_hits: stage("analyze", "hits").unwrap_or(0),
            cell_hits: stage("crpd_cell", "hits").unwrap_or(0),
            cell_misses: stage("crpd_cell", "misses").unwrap_or(0),
            errors: wcrt("errors").unwrap_or(0),
            shed: wcrt("shed").unwrap_or(0),
        }
    }

    fn minus(self, o: Store) -> Store {
        Store {
            assemble_misses: self.assemble_misses - o.assemble_misses,
            assemble_hits: self.assemble_hits - o.assemble_hits,
            analyze_misses: self.analyze_misses - o.analyze_misses,
            analyze_hits: self.analyze_hits - o.analyze_hits,
            cell_hits: self.cell_hits - o.cell_hits,
            cell_misses: self.cell_misses - o.cell_misses,
            errors: self.errors - o.errors,
            shed: self.shed - o.shed,
        }
    }
}

fn is_write(index: usize) -> bool {
    index % CYCLE == CYCLE - 1
}

pub fn run(args: &Args, pool: &rtpar::Pool) -> Outcome {
    let (setup_s, mut s) = measure::repeated_setup(|| setup(args.seed, pool));
    let systems = &s.systems;
    let ops = &mut s.served.ops;
    let request = |i: usize| edit(args.seed, i, is_write(i)).request_line(i, systems);
    // The timed op is the round trip alone: the caller builds request
    // `i + 1` and reads reply `i` between ops, outside the window's
    // figures. The op and the work after it share the connection and the
    // next request line.
    let stream = RefCell::new((&mut s.served.requests, request(0)));
    // Hash of each reply's output; `None` when the reply was not `ok`.
    let mut replies: Vec<Option<u64>> = Vec::new();
    let store_before = Store::read(&ops.metrics());
    let mut store_delta = None;
    // Traced runs: the server's journal rows of every request, by block.
    let mut journal: Vec<Json> = Vec::new();
    let mut window = measure::timed_window(
        args.seconds,
        |_| {
            let (conn, line) = &mut *stream.borrow_mut();
            conn.call(line);
            // Checked after the window, against the one-shot rendering.
            (1, true)
        },
        |i| {
            let (conn, line) = &mut *stream.borrow_mut();
            replies.push(output(conn.reply()).map(|o| hash(&o)));
            *line = request(i + 1);
            if i + 1 == RSS_AT_OP {
                store_delta = Some(Store::read(&ops.metrics()).minus(store_before));
            }
            if args.trace && (i + 1) % BLOCK == 0 {
                journal.extend(ops.journal_wcrt(BLOCK));
            }
        },
    );

    // Every reply must equal the one-shot rendering of its request. This
    // runs after the window on a 2-thread pool, which also checks that the
    // 1-thread server's output does not depend on the pool size.
    let verify = rtpar::Pool::new(2);
    let reference = verify.install(|| Reference::new(systems));
    let matches = verify.install(|| {
        rtpar::par_map_range(replies.len(), |i| {
            let expected = reference.output(&edit(args.seed, i, is_write(i)), systems);
            replies[i] == Some(hash(&expected))
        })
    });
    window.failed = matches.iter().filter(|ok| !**ok).count();
    if let Some(i) = matches.iter().position(|ok| !ok) {
        eprintln!(
            "serve_edit: check failed: {} replies differ from the one-shot rtcli output, \
             the first at request {i}",
            window.failed
        );
    }
    // The 3:1 mix fixes the store traffic of the first RSS_AT_OP requests.
    let delta = store_delta.expect("the window runs RSS_AT_OP requests");
    let writes = (RSS_AT_OP / CYCLE) as u64;
    let reads = RSS_AT_OP as u64 - writes;
    let lookups = TASKS as u64 * (reads + writes);
    let mut failures = s.failures.clone();
    if delta.assemble_misses != writes
        || delta.analyze_misses != writes
        || delta.assemble_hits + delta.assemble_misses != lookups
        || delta.analyze_hits + delta.analyze_misses != lookups
        || delta.errors != 0
        || delta.shed != 0
    {
        failures
            .push(format!("store deltas {delta:?} do not match {reads} reads and {writes} writes"));
    }
    measure::fail_all_unless(&mut window, "serve_edit", &failures);
    if !args.trace {
        return Outcome::end_to_end(setup_s, &window);
    }

    // Where the end-to-end percentiles fall: p50 should be a read and p90
    // a write, or the 3:1 mix no longer separates them.
    let mut ranked: Vec<(f64, bool)> =
        window.op_secs.iter().enumerate().map(|(i, secs)| (*secs, is_write(i))).collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let kind = |q: f64| {
        let rank = ((q * ranked.len() as f64).ceil() as usize).clamp(1, ranked.len());
        if ranked[rank - 1].1 {
            "write"
        } else {
            "read"
        }
    };
    eprintln!("serve_edit: the p50 request is a {}, the p90 request a {}", kind(0.5), kind(0.9));

    // Every full block of requests is traced; its journal rows arrived in
    // request order.
    let traced: Vec<(usize, &Json)> = journal.iter().enumerate().collect();
    let journal_ok = !traced.is_empty() && traced.len() == replies.len() / BLOCK * BLOCK;
    if !journal_ok {
        eprintln!(
            "serve_edit: check failed: {} journal rows for {} traced requests",
            journal.len(),
            replies.len() / BLOCK * BLOCK
        );
    }
    let us = |row: &Json, key: &str| row.get(key).and_then(Json::as_u64).unwrap_or(0) as f64 / 1e3;
    let rtt_ms = |i: usize| window.op_secs[i] * 1e3;
    let p = |mut samples: Vec<f64>, q: f64| {
        samples.sort_by(f64::total_cmp);
        quantile(&samples, q)
    };
    let total: Vec<f64> = traced.iter().map(|(_, row)| us(row, "total_us")).collect();
    let analyze = traced
        .iter()
        .filter(|(i, _)| is_write(*i))
        .map(|(_, row)| {
            row.get("stage_ns").and_then(|n| n.get("analyze")).and_then(Json::as_u64).unwrap_or(0)
                as f64
                / 1e6
        })
        .collect();
    let round_trip_ms: f64 = traced.iter().map(|(i, _)| rtt_ms(*i)).sum();
    let values: BTreeMap<String, f64> = [
        ("rtserver.request_ms_p50", p(total.clone(), 0.5)),
        ("rtserver.request_ms_p90", p(total.clone(), 0.9)),
        (
            "rtserver.queue_ms_p50",
            p(traced.iter().map(|(_, row)| us(row, "queue_us")).collect(), 0.5),
        ),
        ("rtserver.stage_analyze_ms", p(analyze, 0.5)),
        (
            "rtreact.transport_ms_p50",
            p(traced.iter().map(|(i, row)| rtt_ms(*i) - us(row, "total_us")).collect(), 0.5),
        ),
        ("rtserver.store.assemble_misses", delta.assemble_misses as f64),
        ("rtserver.store.analyze_misses", delta.analyze_misses as f64),
        ("rtserver.store.analyze_hits", delta.analyze_hits as f64),
        (
            "rtserver.store.cell_hit_ratio",
            delta.cell_hits as f64 / (delta.cell_hits + delta.cell_misses) as f64,
        ),
        ("rtserver.errors", delta.errors as f64),
        ("rtserver.shed", delta.shed as f64),
        ("trace.coverage_ratio", total.iter().sum::<f64>() / round_trip_ms),
        // No overhead ratio: the benchmark adds no spans here, and the
        // server's flight recorder, whose journal these figures come
        // from, is always on, so no untraced request exists to compare.
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    Outcome {
        correct: window.failed == 0 && journal_ok,
        attempted: window.op_secs.len(),
        failed: window.failed,
        metrics: layers::report(&values),
    }
}

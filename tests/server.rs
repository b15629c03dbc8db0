//! End-to-end test of the analysis daemon: concurrent clients over real
//! TCP must see responses byte-identical to the one-shot CLI, served
//! partly from the memoized artifact store.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;

use rtserver::json::Json;
use rtserver::Server;

const SPEC: &str = "cache 64 2 16\ncmiss 20\nccs 50\ntask hi hi.s 5000 1\ntask lo lo.s 50000 2\n";
const TASK_HI: &str = ".data 0x100000\nbuf: .word 1,2,3,4\n.text 0x1000\nstart: li r1, buf\nli r3, 4\nloop: ld r2, 0(r1)\naddi r1, r1, 4\naddi r3, r3, -1\nbne r3, r0, loop\n.bound loop, 4\nhalt\n";
const TASK_LO: &str = ".data 0x100400\nbuf: .word 7,8\n.text 0x2000\nstart: li r1, buf\nld r2, 0(r1)\nld r4, 4(r1)\nadd r2, r2, r4\nhalt\n";

const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 3;

fn request_line(id: u64) -> String {
    Json::obj([
        ("id", Json::from(id)),
        ("cmd", Json::from("wcrt")),
        ("spec", Json::from(SPEC)),
        ("sources", Json::obj([("hi.s", Json::from(TASK_HI)), ("lo.s", Json::from(TASK_LO))])),
    ])
    .encode()
}

fn roundtrip(addr: std::net::SocketAddr, lines: &[String]) -> Vec<Json> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone stream"));
    let mut reader = BufReader::new(stream);
    lines
        .iter()
        .map(|line| {
            writeln!(writer, "{line}").and_then(|()| writer.flush()).expect("send");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("recv");
            Json::parse(reply.trim_end()).expect("reply parses as json")
        })
        .collect()
}

/// The reference output, computed in-process through the same code path
/// `trisc wcrt system.spec` uses.
fn one_shot_reference() -> String {
    let dir = std::env::temp_dir().join(format!("rtserver-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("hi.s"), TASK_HI).expect("write hi.s");
    std::fs::write(dir.join("lo.s"), TASK_LO).expect("write lo.s");
    let spec_path = dir.join("system.spec");
    std::fs::write(&spec_path, SPEC).expect("write spec");
    let spec = rtcli::SystemSpec::load(&spec_path).expect("spec parses");
    let sources = spec.read_sources().expect("sources read");
    let store = rtcli::ArtifactStore::default();
    let output =
        rtcli::run_wcrt(&store, &spec, &sources, false).expect("one-shot analysis succeeds");
    std::fs::remove_dir_all(&dir).ok();
    output
}

#[test]
fn concurrent_clients_get_cli_identical_memoized_responses() {
    let opts = rtcli::ServeOptions {
        host: "127.0.0.1".to_string(),
        port: 0,
        threads: 4,
        ..rtcli::ServeOptions::default()
    };
    let handle = Server::spawn(&opts).expect("bind ephemeral port");
    let addr = handle.addr();

    let expected = one_shot_reference();
    assert!(expected.contains("WCRT"), "reference output looks wrong: {expected}");

    // >= 4 clients hammer the same spec concurrently, pipelining a few
    // requests each over their own connection.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let lines: Vec<String> = (0..REQUESTS_PER_CLIENT)
                    .map(|r| request_line((c * REQUESTS_PER_CLIENT + r) as u64))
                    .collect();
                roundtrip(addr, &lines)
            })
        })
        .collect();

    for (c, client) in clients.into_iter().enumerate() {
        let replies = client.join().expect("client thread");
        for (r, reply) in replies.iter().enumerate() {
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(true),
                "client {c} request {r}: {reply:?}"
            );
            let id = reply.get("id").and_then(Json::as_u64).expect("id echoed");
            assert_eq!(id, (c * REQUESTS_PER_CLIENT + r) as u64);
            let output = reply.get("output").and_then(Json::as_str).expect("output");
            assert_eq!(output, expected, "server output must be byte-identical to the CLI");
        }
    }

    // The artifact store must have served most of those analyses from
    // memory: 2 distinct artifacts, everything else hits.
    let replies = roundtrip(addr, &[r#"{"cmd":"metrics"}"#.to_string()]);
    let metrics = replies[0].get("metrics").expect("metrics payload");
    // The staged DAG is visible over the wire: both pipeline stages hold
    // one artifact per distinct task, and the repeats hit.
    let stages = metrics.get("stages").expect("stage-level cache stats");
    for stage in ["assemble", "analyze"] {
        let s = stages.get(stage).unwrap_or_else(|| panic!("missing stage {stage}"));
        assert_eq!(s.get("entries").and_then(Json::as_u64), Some(2), "{stage} entries");
        assert_eq!(s.get("misses").and_then(Json::as_u64), Some(2), "{stage} misses");
        assert!(s.get("hits").and_then(Json::as_u64).expect("hits") > 0, "{stage} hits");
    }
    let cells = stages.get("crpd_cell").expect("crpd_cell stage");
    assert!(
        cells.get("hits").and_then(Json::as_u64).expect("cell hits") > 0,
        "repeated WCRT requests must hit the pairwise CRPD cell cache"
    );
    let wcrt = metrics.get("endpoints").and_then(|e| e.get("wcrt")).expect("wcrt endpoint stats");
    assert_eq!(
        wcrt.get("count").and_then(Json::as_u64),
        Some((CLIENTS * REQUESTS_PER_CLIENT) as u64)
    );
    assert_eq!(wcrt.get("errors").and_then(Json::as_u64), Some(0));

    // Graceful shutdown: ack, drain, exit.
    let replies = roundtrip(addr, &[r#"{"cmd":"shutdown"}"#.to_string()]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true));
    handle.join().expect("server exits cleanly after shutdown");
}

/// `--threads` is the server's single parallelism knob: it sizes the
/// `rtpar` analysis pool as well as the connection workers, responses are
/// byte-identical between a 1-thread and an 8-thread server, and a
/// `--threads 1` server truly single-threads its analysis (its pool
/// spawns zero background workers — the regression guard for the old
/// split between server threads and analysis threads).
#[test]
fn wcrt_responses_are_thread_count_invariant_over_the_wire() {
    let mut outputs = Vec::new();
    for threads in [1usize, 8] {
        let opts = rtcli::ServeOptions {
            host: "127.0.0.1".to_string(),
            port: 0,
            threads,
            ..rtcli::ServeOptions::default()
        };
        let handle = Server::spawn(&opts).expect("bind ephemeral port");
        let replies = roundtrip(
            handle.addr(),
            &[
                request_line(1),
                r#"{"cmd":"metrics"}"#.to_string(),
                r#"{"cmd":"shutdown"}"#.to_string(),
            ],
        );
        assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true), "{:?}", replies[0]);
        outputs.push(replies[0].get("output").and_then(Json::as_str).expect("output").to_string());

        let pool = replies[1]
            .get("metrics")
            .and_then(|m| m.get("analysis_pool"))
            .expect("metrics exposes the analysis pool");
        assert_eq!(
            pool.get("threads").and_then(Json::as_u64),
            Some(threads as u64),
            "the analysis pool must be sized by --threads"
        );
        assert_eq!(
            pool.get("background_workers").and_then(Json::as_u64),
            Some(threads as u64 - 1),
            "--threads 1 must spawn no analysis workers; N threads spawn N-1"
        );
        handle.join().expect("clean exit");
    }
    assert_eq!(outputs[0], outputs[1], "1-thread and 8-thread servers must agree byte-for-byte");
    assert_eq!(outputs[0], one_shot_reference(), "and both must match the one-shot CLI");
}

/// Error paths must degrade per-request, never per-server: a malformed
/// explore grid, an oversized spec payload and a client that vanishes
/// mid-stream each produce a typed error (or nothing), while the same
/// server keeps answering, and every failure is visible in the metrics
/// error counters.
#[test]
fn error_paths_leave_the_server_serving() {
    let opts = rtcli::ServeOptions {
        host: "127.0.0.1".to_string(),
        port: 0,
        threads: 2,
        ..rtcli::ServeOptions::default()
    };
    let handle = Server::spawn(&opts).expect("bind ephemeral port");
    let addr = handle.addr();

    // A malformed explore grid (bogus axis) errors on that request only:
    // the same connection then serves an explore with a good grid.
    let bad_grid = Json::obj([
        ("id", Json::from(1u64)),
        ("cmd", Json::from("explore")),
        ("spec", Json::from(SPEC)),
        ("sources", Json::obj([("hi.s", Json::from(TASK_HI)), ("lo.s", Json::from(TASK_LO))])),
        ("grid", Json::from("sets 32 64\nfrobnicate 1 2\n")),
    ])
    .encode();
    let replies = roundtrip(addr, &[bad_grid, r#"{"id":2,"cmd":"ping"}"#.to_string()]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(false), "{:?}", replies[0]);
    let error = replies[0].get("error").and_then(Json::as_str).expect("typed error");
    assert!(error.contains("frobnicate"), "error should name the bad axis: {error}");
    assert_eq!(replies[1].get("output").and_then(Json::as_str), Some("pong"));

    // An oversized spec is rejected before any parsing or analysis work.
    let oversized = Json::obj([
        ("id", Json::from(3u64)),
        ("cmd", Json::from("wcrt")),
        ("spec", Json::from("x".repeat(rtserver::proto::MAX_SPEC_BYTES + 1).as_str())),
    ])
    .encode();
    let replies = roundtrip(addr, &[oversized, r#"{"id":4,"cmd":"ping"}"#.to_string()]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(false));
    let error = replies[0].get("error").and_then(Json::as_str).expect("typed error");
    assert!(error.contains("exceeds"), "oversized spec must be rejected by size: {error}");
    assert_eq!(replies[1].get("output").and_then(Json::as_str), Some("pong"));

    // A client that writes half a request and disconnects mid-stream must
    // not wedge the worker: new connections still get served.
    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = BufWriter::new(stream);
        write!(writer, r#"{{"id":5,"cmd":"wcrt","spec":"#).expect("partial write");
        writer.flush().expect("flush");
        // Drop without a newline: the connection dies with the request
        // unterminated.
    }
    let replies = roundtrip(addr, &[r#"{"id":6,"cmd":"ping"}"#.to_string()]);
    assert_eq!(replies[0].get("output").and_then(Json::as_str), Some("pong"));

    // Both request failures are on the books, attributed per endpoint.
    // The half-request is dispatched when its event loop reads the EOF,
    // which can land after the ping above was served on another loop, so
    // wait (bounded) until it is booked before asserting exact counts.
    let errors = |endpoints: &Json, ep: &str| {
        endpoints.get(ep).and_then(|e| e.get("errors")).and_then(Json::as_u64).unwrap_or(0)
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let endpoints = loop {
        let replies = roundtrip(addr, &[r#"{"cmd":"metrics"}"#.to_string()]);
        let endpoints = replies[0]
            .get("metrics")
            .and_then(|m| m.get("endpoints"))
            .cloned()
            .expect("metrics endpoint stats");
        if errors(&endpoints, "invalid") >= 2 || std::time::Instant::now() >= deadline {
            break endpoints;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    let errors = |ep: &str| errors(&endpoints, ep);
    assert_eq!(errors("explore"), 1, "the malformed grid counts as an explore error");
    // The oversized spec never produces a `Command`, so it is booked
    // under the parse-stage `invalid` endpoint — as is the disconnected
    // client's unterminated half-request, which the worker reads at EOF,
    // fails to parse, and then cannot answer.
    assert_eq!(errors("invalid"), 2, "oversized spec + truncated request are parse-stage errors");

    let replies = roundtrip(addr, &[r#"{"cmd":"shutdown"}"#.to_string()]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true));
    handle.join().expect("server exits cleanly after the error traffic");
}

/// Cache geometries from the wire are untrusted: too many ways, too many
/// sets, or a count past `u32` each get a typed error naming the bound —
/// never a truncated geometry or an allocation that aborts the daemon —
/// and the same connection is served afterwards.
#[test]
fn untrusted_geometries_get_typed_errors_and_the_server_keeps_serving() {
    let opts = rtcli::ServeOptions {
        host: "127.0.0.1".to_string(),
        port: 0,
        threads: 2,
        ..rtcli::ServeOptions::default()
    };
    let handle = Server::spawn(&opts).expect("bind ephemeral port");
    let addr = handle.addr();
    let cases = [
        ("cache 64 256 16", "number of ways must be at most 255, got 256"),
        ("cache 1073741824 1 16", "number of cache sets must be at most 65536, got 1073741824"),
        ("cache 4294967360 2 16", "sets `4294967360` exceeds 4294967295"),
    ];
    for (id, (cache, expected)) in (1u64..).zip(cases) {
        let spec = SPEC.replace("cache 64 2 16", cache);
        let request = Json::obj([
            ("id", Json::from(id)),
            ("cmd", Json::from("wcrt")),
            ("spec", Json::from(spec.as_str())),
            ("sources", Json::obj([("hi.s", Json::from(TASK_HI)), ("lo.s", Json::from(TASK_LO))])),
        ])
        .encode();
        let replies = roundtrip(addr, &[request, r#"{"id":99,"cmd":"ping"}"#.to_string()]);
        assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(false), "{cache}");
        let error = replies[0].get("error").and_then(Json::as_str).expect("typed error");
        assert!(error.contains(expected), "{cache}: {error}");
        assert_eq!(replies[1].get("output").and_then(Json::as_str), Some("pong"), "{cache}");
    }
    let replies = roundtrip(addr, &[request_line(7)]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true), "{:?}", replies[0]);
    let replies = roundtrip(addr, &[r#"{"cmd":"shutdown"}"#.to_string()]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true));
    handle.join().expect("server exits cleanly after the bad geometries");
}

/// Eq. 7's inputs are checked at the spec boundary and its arithmetic
/// does not wrap: a zero period, a repeated priority and a `cmiss` whose
/// WCET overflows each get `"ok":false` with the typed text, the next
/// `ping` is answered, and a `ccs` whose preemption cost overflows marks
/// the preempted task unschedulable while the top task keeps its WCRT.
#[test]
fn eq7_inputs_and_overflow_get_typed_results_and_the_server_keeps_serving() {
    let opts = rtcli::ServeOptions {
        host: "127.0.0.1".to_string(),
        port: 0,
        threads: 2,
        ..rtcli::ServeOptions::default()
    };
    let handle = Server::spawn(&opts).expect("bind ephemeral port");
    let addr = handle.addr();
    let wcrt = |id: u64, spec: &str| {
        Json::obj([
            ("id", Json::from(id)),
            ("cmd", Json::from("wcrt")),
            ("spec", Json::from(spec)),
            ("sources", Json::obj([("hi.s", Json::from(TASK_HI)), ("lo.s", Json::from(TASK_LO))])),
        ])
        .encode()
    };
    let max = u64::MAX.to_string();
    let cases = [
        (SPEC.replace("hi.s 5000", "hi.s 0"), "line 4: period must be at least 1 cycle"),
        (SPEC.replace("50000 2", "50000 1"), "line 5: priority 1 is already task `hi`'s"),
        (
            SPEC.replace("cmiss 20", &format!("cmiss {max}")),
            "variant `default`: cycle count overflows 64 bits",
        ),
    ];
    for (id, (spec, expected)) in (1u64..).zip(&cases) {
        let replies = roundtrip(addr, &[wcrt(id, spec), r#"{"id":99,"cmd":"ping"}"#.to_string()]);
        assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(false), "{spec}");
        let error = replies[0].get("error").and_then(Json::as_str).expect("typed error");
        assert!(error.contains(expected), "{spec}: {error}");
        assert_eq!(replies[1].get("output").and_then(Json::as_str), Some("pong"), "{spec}");
    }
    let spec = SPEC.replace("ccs 50", &format!("ccs {max}"));
    let replies = roundtrip(addr, &[wcrt(7, &spec)]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true), "{:?}", replies[0]);
    let output = replies[0].get("output").and_then(Json::as_str).expect("report");
    let row = |cells: [&str; 6]| {
        format!(
            "  {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            cells[0], cells[1], cells[2], cells[3], cells[4], cells[5]
        )
    };
    let late = format!("{max}*");
    assert!(output.contains(&row(["hi", "79", "79", "79", "79", "5000"])), "{output}");
    assert!(output.contains(&row(["lo", &late, &late, &late, &late, "50000"])), "{output}");
    let replies = roundtrip(addr, &[r#"{"cmd":"shutdown"}"#.to_string()]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true));
    handle.join().expect("server exits cleanly after the bad specs");
}

/// The server never reads its own filesystem: a task `FILE` missing from
/// `sources` gets the same typed spec error naming the task and the key
/// whether the path is a readable regular file, a directory or missing,
/// and the next `ping` is answered.
#[test]
fn task_files_outside_sources_get_one_typed_error() {
    let dir = std::env::temp_dir().join(format!("rtserver-no-fs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let regular = dir.join("hi.s");
    std::fs::write(&regular, TASK_HI).expect("write hi.s");
    let handle = spawn_server();
    for path in [&regular, &dir, &dir.join("missing.s")] {
        let file = path.display().to_string();
        let sources = Json::obj([("other.s", Json::from(TASK_HI))]);
        let request = analysis_request("wcet", &format!("task t {file} 5000 1\n"), sources, &[]);
        let replies = roundtrip(handle.addr(), &[request, r#"{"id":99,"cmd":"ping"}"#.to_string()]);
        assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(false), "{file}");
        assert_eq!(
            replies[0].get("error").and_then(Json::as_str),
            Some(
                format!(
                    "bad system spec: task `t`: source `{file}` is not in the request's `sources`"
                )
                .as_str()
            )
        );
        assert_eq!(replies[1].get("output").and_then(Json::as_str), Some("pong"));
    }
    std::fs::remove_dir_all(&dir).ok();
    shutdown(handle);
}

/// The quickstart files under `examples/specs`.
fn example(name: &str) -> String {
    format!("{}/examples/specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs `trisc ARGS…` in process, through the binary's own dispatch.
fn one_shot(args: &[&str]) -> Result<String, rtcli::CliError> {
    rtcli::dispatch(args.iter().map(|a| a.to_string()).collect())
}

/// A two-worker server on an ephemeral port.
fn spawn_server() -> rtserver::ServerHandle {
    let opts = rtcli::ServeOptions {
        host: "127.0.0.1".to_string(),
        port: 0,
        threads: 2,
        ..rtcli::ServeOptions::default()
    };
    Server::spawn(&opts).expect("bind ephemeral port")
}

fn shutdown(handle: rtserver::ServerHandle) {
    let replies = roundtrip(handle.addr(), &[r#"{"cmd":"shutdown"}"#.to_string()]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true));
    handle.join().expect("clean exit");
}

/// An analysis request line: `cmd` over `spec` and inline `sources`,
/// plus `extra` fields.
fn analysis_request(cmd: &str, spec: &str, sources: Json, extra: &[(&str, Json)]) -> String {
    let mut fields =
        vec![("cmd", Json::from(cmd)), ("spec", Json::from(spec)), ("sources", sources)];
    fields.extend(extra.iter().cloned());
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).encode()
}

/// An analysis request over the example sources, inlined.
fn example_request(cmd: &str, spec: &str, extra: &[(&str, Json)]) -> String {
    let read = |name: &str| std::fs::read_to_string(example(name)).expect("example source");
    let sources = Json::obj([
        ("hi.s", Json::from(read("hi.s").as_str())),
        ("lo.s", Json::from(read("lo.s").as_str())),
    ]);
    analysis_request(cmd, spec, sources, extra)
}

/// Reads one streamed reply: `explore` point rows, then the `done` frame.
fn explore_frames(addr: std::net::SocketAddr, request: &str) -> (Vec<String>, Json) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone stream"));
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{request}").and_then(|()| writer.flush()).expect("send");
    let mut rows = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        let frame = Json::parse(line.trim_end()).expect("frame parses");
        match frame.get("event").and_then(Json::as_str) {
            Some("points") => {
                let Some(Json::Arr(points)) = frame.get("points") else { panic!("{line}") };
                rows.extend(points.iter().map(|p| p.get("row").unwrap().as_str().unwrap().into()));
            }
            _ => return (rows, frame),
        }
    }
}

/// Every spec-driven command answers over NDJSON with exactly the text
/// the one-shot CLI prints for the same inputs: `wcet`, `crpd`, `sim` and
/// `wcrt` replies byte for byte, and `explore`'s streamed rows plus its
/// `done` output as `trisc explore`'s rows and front.
#[test]
fn ndjson_output_equals_the_one_shot_cli_for_every_command() {
    let handle = spawn_server();
    let (hi, lo, system) = (example("hi.s"), example("lo.s"), example("system.spec"));
    let system_text = std::fs::read_to_string(&system).expect("system.spec");
    let pair = "cache 64 2 16\ntask lo lo.s 50000 2\ntask hi hi.s 5000 1\n";
    let wcet_cli =
        [&lo, &hi].map(|f| one_shot(&["wcet", f, "--sets", "64", "--ways", "2"]).unwrap()).concat();
    let cases = [
        (example_request("wcet", pair, &[]), wcet_cli),
        (
            example_request("crpd", pair, &[]),
            one_shot(&["crpd", &lo, &hi, "--sets", "64", "--ways", "2"]).unwrap(),
        ),
        (example_request("sim", &system_text, &[]), one_shot(&["sim", &system]).unwrap()),
        (
            example_request("sim", &system_text, &[("horizon", Json::from(7_000u64))]),
            one_shot(&["sim", &system, "--horizon", "7000"]).unwrap(),
        ),
        (example_request("wcrt", &system_text, &[]), one_shot(&["wcrt", &system]).unwrap()),
    ];
    for (request, expected) in &cases {
        let replies = roundtrip(handle.addr(), std::slice::from_ref(request));
        assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true), "{:?}", replies[0]);
        assert_eq!(replies[0].get("output").and_then(Json::as_str), Some(expected.as_str()));
    }
    // `trisc explore` = header line + rows + blank line + front.
    let grid = std::fs::read_to_string(example("sweep.grid")).expect("sweep.grid");
    let request = example_request("explore", &system_text, &[("grid", Json::from(grid.as_str()))]);
    let (rows, done) = explore_frames(handle.addr(), &request);
    let report = rtexplore::cmd_explore(Path::new(&example("sweep.grid"))).unwrap();
    let (_header, body) = report.split_once('\n').unwrap();
    let output = done.get("output").and_then(Json::as_str).expect("done output");
    assert_eq!(format!("{}\n\n{output}", rows.join("\n")), body);
    shutdown(handle);
}

/// An assembly error names its task (`lo: line 1: …`) the same way in
/// the one-shot CLI and in every NDJSON analysis command, since all of
/// them assemble through the artifact store's one `assemble` stage.
#[test]
fn assembly_errors_name_the_task_on_every_path() {
    let expected = "assembly failed: lo: line 1: ";
    let dir = std::env::temp_dir().join(format!("rtserver-asm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("hi.s"), TASK_HI).expect("write hi.s");
    std::fs::write(dir.join("lo.s"), "frobnicate r1\n").expect("write lo.s");
    std::fs::write(dir.join("system.spec"), SPEC).expect("write spec");
    std::fs::write(dir.join("sweep.grid"), "spec system.spec\nsets 32 64\n").expect("grid");
    let path = |name: &str| dir.join(name).display().to_string();
    let cli = [
        one_shot(&["wcrt", &path("system.spec")]),
        one_shot(&["sim", &path("system.spec")]),
        one_shot(&["crpd", &path("lo.s"), &path("hi.s")]),
        one_shot(&["wcet", &path("lo.s")]),
        rtexplore::cmd_explore(&dir.join("sweep.grid")),
    ];
    std::fs::remove_dir_all(&dir).ok();
    for result in cli {
        let error = result.unwrap_err().to_string();
        assert!(error.starts_with(expected), "{error}");
    }
    let handle = spawn_server();
    let sources =
        Json::obj([("hi.s", Json::from(TASK_HI)), ("lo.s", Json::from("frobnicate r1\n"))]);
    let request =
        |cmd: &str, extra: &[(&str, Json)]| analysis_request(cmd, SPEC, sources.clone(), extra);
    let lines: Vec<String> = ["wcet", "crpd", "wcrt", "sim"]
        .into_iter()
        .map(|cmd| request(cmd, &[]))
        .chain([request("explore", &[("grid", Json::from("sets 32 64\n"))])])
        .collect();
    for reply in roundtrip(handle.addr(), &lines) {
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false), "{reply:?}");
        let error = reply.get("error").and_then(Json::as_str).expect("typed error");
        assert!(error.starts_with(expected), "{error}");
    }
    shutdown(handle);
}

/// The co-simulation clock and the structural WCET bound never wrap: a
/// miss penalty that overflows the clock is a typed `sim` error, a
/// default horizon past `u64::MAX` saturates (both releases of a
/// 2^63 + 1 period are simulated), and a structural bound past `u64::MAX`
/// is reported as such — over NDJSON exactly as in the one-shot CLI, with
/// the server serving on afterwards.
#[test]
fn sim_clock_and_wcet_bound_overflow_get_typed_results_over_the_wire() {
    let handle = spawn_server();
    let system = std::fs::read_to_string(example("system.spec")).expect("system.spec");
    let clock = system.replace("cmiss 20", "cmiss 9223372036854775807");
    let replies = roundtrip(
        handle.addr(),
        &[example_request("sim", &clock, &[]), r#"{"id":99,"cmd":"ping"}"#.to_string()],
    );
    let error = replies[0].get("error").and_then(Json::as_str).expect("typed error");
    assert!(error.contains("simulated time overflows 64 bits while running task `hi`"), "{error}");
    assert_eq!(replies[1].get("output").and_then(Json::as_str), Some("pong"));
    let long = "cache 64 2 16\ncmiss 20\ntask hi hi.s 9223372036854775809 1\n";
    let wcet = "task hi hi.s 5000 1\ncmiss 1844674407370955161\n";
    let replies = roundtrip(
        handle.addr(),
        &[example_request("sim", long, &[]), example_request("wcet", wcet, &[])],
    );
    let sim = replies[0].get("output").and_then(Json::as_str).expect("sim output");
    assert!(sim.starts_with("simulated 9223372036854775828 cycles:"), "{sim}");
    assert!(sim.contains("hi: 2 jobs, max response 79"), "{sim}");
    let wcet = replies[1].get("output").and_then(Json::as_str).expect("wcet output");
    assert!(wcet.contains("WCET = 5534023222112865502 cycles"), "{wcet}");
    assert!(wcet.contains("structural all-miss bound: cycle count overflows 64 bits"), "{wcet}");
    assert_eq!(
        wcet,
        one_shot(&["wcet", &example("hi.s"), "--cmiss", "1844674407370955161"]).unwrap()
    );
    shutdown(handle);
}

/// The e2e for the rtflight ops plane: `metrics` exposes per-endpoint
/// quantiles and stage attribution, and `journal` returns the newest
/// flight records, oldest first.
#[test]
fn flight_endpoints_expose_metrics_and_journal() {
    let handle = spawn_server();
    let addr = handle.addr();

    // Six requests on one connection: flight record ids 0..=4 are pings,
    // id 5 is the wcrt (commit order is serve order on one connection).
    let mut lines: Vec<String> = (0..5).map(|i| format!(r#"{{"id":{i},"cmd":"ping"}}"#)).collect();
    lines.push(request_line(90));
    for reply in roundtrip(addr, &lines) {
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true), "{reply:?}");
    }

    let replies = roundtrip(
        addr,
        &[r#"{"cmd":"metrics"}"#.to_string(), r#"{"cmd":"journal","n":4}"#.to_string()],
    );
    let status = replies[0].get("metrics").expect("metrics payload");
    assert!(status.get("records_total").and_then(Json::as_u64).unwrap() >= 6);
    let endpoints = status.get("endpoints").expect("endpoint summaries");
    let ping = endpoints.get("ping").expect("ping summary");
    assert_eq!(ping.get("count").and_then(Json::as_u64), Some(5));
    assert_eq!(ping.get("errors").and_then(Json::as_u64), Some(0));
    for q in ["p50_us", "p90_us", "p99_us", "max_us"] {
        assert!(ping.get(q).and_then(Json::as_u64).is_some(), "ping {q}");
    }
    let wcrt = endpoints.get("wcrt").expect("wcrt summary");
    assert_eq!(wcrt.get("count").and_then(Json::as_u64), Some(1));
    // Stage-cache counters and per-stage wall time are in the snapshot.
    let analyze = status.get("stages").and_then(|s| s.get("analyze")).expect("analyze stage");
    assert_eq!(analyze.get("misses").and_then(Json::as_u64), Some(2));
    let stage_ns = status.get("stage_ns").expect("stage wall time");
    assert!(stage_ns.get("wcrt").and_then(Json::as_u64).unwrap() > 0, "wcrt stage attributed");
    assert!(stage_ns.get("request").and_then(Json::as_u64).unwrap() > 0, "request span attributed");

    // Journal: the newest four records are 3, 4 (pings), 5 (wcrt) and 6
    // (the metrics request just served), oldest first.
    let Some(Json::Arr(records)) = replies[1].get("journal") else {
        panic!("journal payload: {:?}", replies[1])
    };
    let ids: Vec<u64> =
        records.iter().map(|r| r.get("id").and_then(Json::as_u64).expect("id")).collect();
    assert_eq!(ids, [3, 4, 5, 6], "the newest four records, oldest first");
    let wcrt_record = &records[2];
    assert_eq!(wcrt_record.get("endpoint").and_then(Json::as_str), Some("wcrt"));
    assert_eq!(wcrt_record.get("ok").and_then(Json::as_bool), Some(true));
    // The cold wcrt request missed the analyze stage once per task.
    let misses = wcrt_record.get("stage_misses").expect("stage misses");
    assert_eq!(misses.get("analyze").and_then(Json::as_u64), Some(2), "{wcrt_record:?}");

    // `metrics` reads the flight recorder: every committed record lands
    // in exactly one endpoint row, and each snapshot is taken before its
    // own request commits, so the journal's newest record is the first
    // snapshot's request and only the two ops rows move between them.
    let replies = roundtrip(
        addr,
        &[
            r#"{"cmd":"metrics"}"#.to_string(),
            r#"{"cmd":"journal","n":1}"#.to_string(),
            r#"{"cmd":"metrics"}"#.to_string(),
        ],
    );
    let snapshot = |reply: &Json| -> (u64, std::collections::BTreeMap<String, Json>) {
        let metrics = reply.get("metrics").expect("metrics payload");
        let Some(Json::Obj(rows)) = metrics.get("endpoints") else {
            panic!("metrics endpoints: {reply:?}")
        };
        (metrics.get("records_total").and_then(Json::as_u64).expect("records_total"), rows.clone())
    };
    let ((before, before_rows), (after, after_rows)) =
        (snapshot(&replies[0]), snapshot(&replies[2]));
    for (records, rows) in [(before, &before_rows), (after, &after_rows)] {
        let counted: u64 =
            rows.values().map(|r| r.get("count").and_then(Json::as_u64).unwrap()).sum();
        assert_eq!(counted, records, "one row count per committed record: {rows:?}");
    }
    assert_eq!(after, before + 2);
    let Some(Json::Arr(newest)) = replies[1].get("journal") else {
        panic!("journal payload: {:?}", replies[1])
    };
    assert_eq!(newest[0].get("id").and_then(Json::as_u64), Some(before));
    assert_eq!(newest[0].get("endpoint").and_then(Json::as_str), Some("metrics"));
    let count = |rows: &std::collections::BTreeMap<String, Json>, endpoint: &str| {
        rows[endpoint].get("count").and_then(Json::as_u64).unwrap()
    };
    assert_eq!(count(&after_rows, "metrics"), count(&before_rows, "metrics") + 1);
    assert_eq!(count(&after_rows, "journal"), count(&before_rows, "journal") + 1);
    for endpoint in ["ping", "wcrt"] {
        assert_eq!(after_rows[endpoint], before_rows[endpoint], "{endpoint} row moved");
    }
    assert_eq!(count(&after_rows, "ping"), 5);

    let replies = roundtrip(addr, &[r#"{"cmd":"shutdown"}"#.to_string()]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true));
    handle.join().expect("clean exit");
}

/// Admission control end-to-end: at the cap (`--max-inflight 0` pins the
/// server at it permanently) every analysis request is shed with a typed
/// `overloaded` error while the ops plane keeps answering, the sheds are
/// on the books in `metrics`, and a
/// server-wide `--deadline-ms` (or the request's own `deadline_ms`)
/// rejects queued-too-long analyses as `deadline_exceeded` before any
/// analysis runs.
#[test]
fn admission_control_sheds_and_enforces_deadlines() {
    // A zero cap means `inflight >= max_inflight` always holds: the
    // deterministic worst case of an overloaded server.
    let opts = rtcli::ServeOptions {
        host: "127.0.0.1".to_string(),
        port: 0,
        threads: 2,
        max_inflight: 0,
        ..rtcli::ServeOptions::default()
    };
    let handle = Server::spawn(&opts).expect("bind ephemeral port");
    let addr = handle.addr();

    let replies = roundtrip(addr, &[request_line(7), r#"{"id":8,"cmd":"ping"}"#.to_string()]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(false), "{:?}", replies[0]);
    assert_eq!(replies[0].get("id").and_then(Json::as_u64), Some(7), "id echoed on a shed");
    assert_eq!(
        replies[0].get("code").and_then(Json::as_str),
        Some("overloaded"),
        "sheds carry a machine-readable code: {:?}",
        replies[0]
    );
    let error = replies[0].get("error").and_then(Json::as_str).expect("shed error text");
    assert!(error.contains("max-inflight 0"), "shed error names the cap: {error}");
    // The ops plane is exempt precisely because the server is saturated.
    assert_eq!(replies[1].get("output").and_then(Json::as_str), Some("pong"));

    let replies = roundtrip(addr, &[r#"{"cmd":"metrics"}"#.to_string()]);
    let metrics = replies[0].get("metrics").expect("metrics payload");
    let admission = metrics.get("admission").expect("admission gauges");
    assert_eq!(admission.get("max_inflight").and_then(Json::as_u64), Some(0));
    assert_eq!(admission.get("shed_total").and_then(Json::as_u64), Some(1));
    let wcrt = metrics.get("endpoints").and_then(|e| e.get("wcrt")).expect("shed-only endpoint");
    assert_eq!(wcrt.get("shed").and_then(Json::as_u64), Some(1), "{wcrt:?}");
    assert_eq!(wcrt.get("count").and_then(Json::as_u64), Some(0), "sheds are not requests");

    // Shutdown is ops-plane too: it must get through a saturated server.
    let replies = roundtrip(addr, &[r#"{"cmd":"shutdown"}"#.to_string()]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true));
    handle.join().expect("clean exit");

    // Deadlines: a zero server-wide deadline is already exceeded by any
    // queue wait, so every analysis is rejected before it runs...
    let opts = rtcli::ServeOptions {
        host: "127.0.0.1".to_string(),
        port: 0,
        threads: 2,
        deadline_ms: Some(0),
        ..rtcli::ServeOptions::default()
    };
    let handle = Server::spawn(&opts).expect("bind ephemeral port");
    let addr = handle.addr();
    let mut generous = Json::parse(&request_line(9)).expect("request json");
    if let Json::Obj(fields) = &mut generous {
        fields.insert("deadline_ms".to_string(), Json::from(600_000u64));
    }
    let replies = roundtrip(addr, &[request_line(9), generous.encode()]);
    assert_eq!(
        replies[0].get("code").and_then(Json::as_str),
        Some("deadline_exceeded"),
        "{:?}",
        replies[0]
    );
    // ...unless the request raises its own deadline: the per-request
    // field overrides the server default in both directions.
    assert_eq!(replies[1].get("ok").and_then(Json::as_bool), Some(true), "{:?}", replies[1]);
    let replies = roundtrip(addr, &[r#"{"cmd":"metrics"}"#.to_string()]);
    let wcrt = replies[0]
        .get("metrics")
        .and_then(|s| s.get("endpoints"))
        .and_then(|e| e.get("wcrt"))
        .expect("wcrt endpoint stats");
    assert_eq!(wcrt.get("deadline_misses").and_then(Json::as_u64), Some(1), "{wcrt:?}");
    let replies = roundtrip(addr, &[r#"{"cmd":"shutdown"}"#.to_string()]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true));
    handle.join().expect("clean exit");

    // And with no server default, a request-level zero deadline is
    // enforced all the same.
    let opts = rtcli::ServeOptions {
        host: "127.0.0.1".to_string(),
        port: 0,
        threads: 2,
        ..rtcli::ServeOptions::default()
    };
    let handle = Server::spawn(&opts).expect("bind ephemeral port");
    let mut strict = Json::parse(&request_line(10)).expect("request json");
    if let Json::Obj(fields) = &mut strict {
        fields.insert("deadline_ms".to_string(), Json::from(0u64));
    }
    let replies = roundtrip(handle.addr(), &[strict.encode(), r#"{"cmd":"shutdown"}"#.to_string()]);
    assert_eq!(replies[0].get("code").and_then(Json::as_str), Some("deadline_exceeded"));
    handle.join().expect("clean exit");
}

/// One batch request fans its items out over the analysis pool and
/// streams back one `result` frame per item — indexed, in order, each
/// sharing the request id — then a `done` frame with the tallies. Item
/// errors are per-item, and the whole exchange is byte-identical between
/// a 1-thread and an 8-thread server.
#[test]
fn batch_results_are_indexed_ordered_and_thread_count_invariant() {
    let expected = one_shot_reference();
    let wcrt_item = Json::obj([
        ("cmd", Json::from("wcrt")),
        ("spec", Json::from(SPEC)),
        ("sources", Json::obj([("hi.s", Json::from(TASK_HI)), ("lo.s", Json::from(TASK_LO))])),
    ]);
    let bad_item =
        Json::obj([("cmd", Json::from("wcet")), ("spec", Json::from("not a spec at all"))]);
    let batch = Json::obj([
        ("id", Json::from(42u64)),
        ("cmd", Json::from("batch")),
        ("items", Json::Arr(vec![wcrt_item.clone(), bad_item, wcrt_item])),
    ])
    .encode();

    let mut transcripts = Vec::new();
    for threads in [1usize, 8] {
        let opts = rtcli::ServeOptions {
            host: "127.0.0.1".to_string(),
            port: 0,
            threads,
            ..rtcli::ServeOptions::default()
        };
        let handle = Server::spawn(&opts).expect("bind ephemeral port");
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone stream"));
        let mut reader = BufReader::new(stream);
        writeln!(writer, "{batch}").and_then(|()| writer.flush()).expect("send batch");
        // One frame per item, then the done frame.
        let frames: Vec<Json> = (0..4)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).expect("frame");
                Json::parse(line.trim_end()).expect("frame parses")
            })
            .collect();

        for (index, frame) in frames[..3].iter().enumerate() {
            assert_eq!(frame.get("event").and_then(Json::as_str), Some("result"), "{frame:?}");
            assert_eq!(frame.get("index").and_then(Json::as_u64), Some(index as u64));
            assert_eq!(frame.get("id").and_then(Json::as_u64), Some(42), "frames share the id");
        }
        assert_eq!(frames[0].get("ok").and_then(Json::as_bool), Some(true), "{:?}", frames[0]);
        assert_eq!(
            frames[0].get("output").and_then(Json::as_str),
            Some(expected.as_str()),
            "batch items run the same pipeline as standalone requests"
        );
        assert_eq!(frames[1].get("ok").and_then(Json::as_bool), Some(false));
        assert!(frames[1].get("error").and_then(Json::as_str).is_some(), "{:?}", frames[1]);
        assert_eq!(frames[2].get("output").and_then(Json::as_str), Some(expected.as_str()));
        let done = &frames[3];
        assert_eq!(done.get("event").and_then(Json::as_str), Some("done"), "{done:?}");
        assert_eq!(done.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(done.get("results").and_then(Json::as_u64), Some(3));
        assert_eq!(done.get("errors").and_then(Json::as_u64), Some(1));

        // The connection is still in sync after a multi-frame response.
        writeln!(writer, r#"{{"cmd":"shutdown"}}"#)
            .and_then(|()| writer.flush())
            .expect("send shutdown");
        let mut line = String::new();
        reader.read_line(&mut line).expect("shutdown ack");
        assert!(line.contains("\"ok\":true"), "{line}");
        handle.join().expect("clean exit");

        transcripts.push(frames.iter().map(Json::encode).collect::<Vec<_>>().join("\n"));
    }
    assert_eq!(transcripts[0], transcripts[1], "batch output is thread-count invariant");
}

/// A slowloris connection — dribbling a frame byte by byte, then going
/// quiet — is reaped by `--idle-timeout-ms` without ever stalling other
/// clients, who are served concurrently throughout.
#[test]
fn slowloris_is_idle_timed_out_without_stalling_others() {
    use std::io::Read as _;

    let opts = rtcli::ServeOptions {
        host: "127.0.0.1".to_string(),
        port: 0,
        threads: 2,
        idle_timeout_ms: Some(150),
        ..rtcli::ServeOptions::default()
    };
    let handle = Server::spawn(&opts).expect("bind ephemeral port");
    let addr = handle.addr();

    let mut dribbler = TcpStream::connect(addr).expect("connect dribbler");
    for chunk in [r#"{"id""#, ":11,", r#""cmd""#] {
        dribbler.write_all(chunk.as_bytes()).expect("dribble");
        dribbler.flush().expect("flush dribble");
        // Partial frames must not hold an event thread hostage: a full
        // round-trip succeeds between dribbles.
        let replies = roundtrip(addr, &[r#"{"id":12,"cmd":"ping"}"#.to_string()]);
        assert_eq!(replies[0].get("output").and_then(Json::as_str), Some("pong"));
        std::thread::sleep(std::time::Duration::from_millis(30));
    }

    // The dribbler goes quiet; the idle sweep closes it within a couple
    // of timeout periods.
    dribbler.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("read timeout");
    let mut buf = [0u8; 16];
    match dribbler.read(&mut buf) {
        Ok(0) => {} // clean close
        Err(e)
            if e.kind() != std::io::ErrorKind::WouldBlock
                && e.kind() != std::io::ErrorKind::TimedOut => {} // reset also fine
        other => panic!("expected the idle server to close the dribbler, got {other:?}"),
    }

    // The reap was surgical: everyone else is still being served.
    let replies = roundtrip(addr, &[request_line(13), r#"{"cmd":"shutdown"}"#.to_string()]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true), "{:?}", replies[0]);
    assert_eq!(replies[1].get("ok").and_then(Json::as_bool), Some(true));
    handle.join().expect("clean exit");
}

/// A client that pipelines requests and vanishes before reading any
/// responses (its socket resets, because it closes with unread data)
/// exercises the server's dead-socket write path: the failure stays on
/// that connection, and the server keeps serving and shuts down cleanly.
#[test]
fn mid_write_disconnect_leaves_the_server_serving() {
    let opts = rtcli::ServeOptions {
        host: "127.0.0.1".to_string(),
        port: 0,
        threads: 2,
        ..rtcli::ServeOptions::default()
    };
    let handle = Server::spawn(&opts).expect("bind ephemeral port");
    let addr = handle.addr();

    {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = BufWriter::new(stream);
        // Two full requests, zero reads: closing now leaves unread
        // response data in the socket, which turns the close into a RST.
        writeln!(writer, "{}", request_line(20)).expect("send");
        writeln!(writer, r#"{{"id":21,"cmd":"ping"}}"#).expect("send");
        writer.flush().expect("flush");
    }

    // Whatever instant the reset lands — before, during or after the
    // response write — other clients never notice.
    let replies = roundtrip(addr, &[request_line(22), r#"{"cmd":"shutdown"}"#.to_string()]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true), "{:?}", replies[0]);
    assert_eq!(
        replies[0].get("output").and_then(Json::as_str),
        Some(one_shot_reference().as_str())
    );
    assert_eq!(replies[1].get("ok").and_then(Json::as_bool), Some(true));
    handle.join().expect("server survives the reset and drains cleanly");
}

/// `trisc status` end to end: the client half fetches `metrics` and
/// `journal` from a live daemon and renders the admission header, the
/// endpoint rows and the stage-cache line. Ops-plane requests take no
/// admission slot, so an idle server reports nothing in flight. The
/// retired commands, `statusz`, `metrics_prom` and `flight`, get the
/// `unknown cmd` error, and the connection keeps serving.
#[test]
fn trisc_status_renders_a_live_server_and_retired_snapshots_are_unknown() {
    let handle = spawn_server();
    let addr = handle.addr();
    let replies = roundtrip(addr, &[request_line(1)]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true), "{:?}", replies[0]);

    let opts = rtcli::StatusOptions {
        host: addr.ip().to_string(),
        port: addr.port(),
        ..rtcli::StatusOptions::default()
    };
    let report = rtserver::ops::run_status(&opts).expect("status report");
    assert!(report.starts_with("rtserver up "), "{report}");
    // The status request itself is ops plane: it is not in flight.
    assert!(report.lines().next().unwrap().contains("| inflight 0/256 | conns "), "{report}");
    let wcrt_row: Vec<&str> = report
        .lines()
        .find(|l| l.trim_start().starts_with("wcrt "))
        .expect("wcrt row")
        .split_whitespace()
        .collect();
    // endpoint, count, err, dl_miss, shed
    assert_eq!(wcrt_row[..5], ["wcrt", "1", "0", "0", "0"], "{report}");
    let stage_line = report
        .lines()
        .find(|l| l.trim_start().starts_with("stage cache hits:"))
        .expect("stage cache line");
    assert!(stage_line.contains("analyze 0/2"), "{stage_line}");

    let replies = roundtrip(
        addr,
        &[
            r#"{"id":1,"cmd":"statusz"}"#.to_string(),
            r#"{"id":2,"cmd":"metrics_prom"}"#.to_string(),
            r#"{"id":3,"cmd":"flight"}"#.to_string(),
            r#"{"id":4,"cmd":"ping"}"#.to_string(),
            r#"{"id":5,"cmd":"metrics"}"#.to_string(),
        ],
    );
    for (reply, cmd) in replies.iter().zip(["statusz", "metrics_prom", "flight"]) {
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false), "{reply:?}");
        let error = reply.get("error").and_then(Json::as_str).expect("error text");
        assert!(error.starts_with(&format!("unknown cmd `{cmd}`")), "{error}");
    }
    assert_eq!(replies[3].get("output").and_then(Json::as_str), Some("pong"));
    let admission =
        replies[4].get("metrics").and_then(|m| m.get("admission")).expect("admission gauges");
    assert_eq!(admission.get("inflight").and_then(Json::as_u64), Some(0), "{admission:?}");
    shutdown(handle);
}

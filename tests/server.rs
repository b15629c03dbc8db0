//! End-to-end test of the analysis daemon: concurrent clients over real
//! TCP must see responses byte-identical to the one-shot CLI, served
//! partly from the memoized artifact store.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;

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
    let output = rtcli::cmd_wcrt(&spec).expect("one-shot analysis succeeds");
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
    let cache = metrics.get("artifact_cache").expect("artifact_cache");
    let hits = cache.get("hits").and_then(Json::as_u64).expect("hits");
    let entries = cache.get("entries").and_then(Json::as_u64).expect("entries");
    assert!(hits > 0, "repeated identical requests must hit the memo store");
    assert_eq!(entries, 2, "one artifact per distinct task");
    // The staged DAG is visible over the wire: both pipeline stages hold
    // the two artifacts, the repeats hit, and `artifact_cache` above is
    // the `analyze` stage under its historic name.
    let stages = metrics.get("stages").expect("stage-level cache stats");
    for stage in ["assemble", "analyze"] {
        let s = stages.get(stage).unwrap_or_else(|| panic!("missing stage {stage}"));
        assert_eq!(s.get("entries").and_then(Json::as_u64), Some(2), "{stage} entries");
        assert_eq!(s.get("misses").and_then(Json::as_u64), Some(2), "{stage} misses");
        assert!(s.get("hits").and_then(Json::as_u64).expect("hits") > 0, "{stage} hits");
    }
    let analyze = stages.get("analyze").expect("analyze stage");
    assert_eq!(analyze.get("hits").and_then(Json::as_u64), Some(hits));
    let cells = stages.get("crpd_cell").expect("crpd_cell stage");
    assert!(
        cells.get("hits").and_then(Json::as_u64).expect("cell hits") > 0,
        "repeated WCRT requests must hit the pairwise CRPD cell cache"
    );
    let wcrt = metrics.get("endpoints").and_then(|e| e.get("wcrt")).expect("wcrt endpoint stats");
    assert_eq!(
        wcrt.get("requests").and_then(Json::as_u64),
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

/// `metrics_prom` returns a well-formed Prometheus text exposition over
/// the wire: HELP/TYPE headers, request counters reflecting the traffic
/// just served, and internally consistent histograms (cumulative
/// monotone buckets whose `+Inf` bucket equals `_count`).
#[test]
fn metrics_prom_returns_consistent_prometheus_text() {
    let opts = rtcli::ServeOptions {
        host: "127.0.0.1".to_string(),
        port: 0,
        threads: 2,
        ..rtcli::ServeOptions::default()
    };
    let handle = Server::spawn(&opts).expect("bind ephemeral port");
    let replies = roundtrip(
        handle.addr(),
        &[
            request_line(1),
            request_line(2),
            r#"{"cmd":"metrics_prom"}"#.to_string(),
            r#"{"cmd":"shutdown"}"#.to_string(),
        ],
    );
    assert_eq!(replies[2].get("ok").and_then(Json::as_bool), Some(true), "{:?}", replies[2]);
    let text = replies[2].get("output").and_then(Json::as_str).expect("exposition text");

    for family in [
        "rtserver_uptime_seconds",
        "rtserver_artifact_cache_entries",
        "rtserver_requests_total",
        "rtserver_request_duration_microseconds",
        "rtserver_analysis_pool_threads",
        "rtserver_stage_cache_hits_total",
        "rtserver_stage_cache_misses_total",
        "rtserver_stage_cache_entries",
        "rtserver_stage_single_flight_waits_total",
    ] {
        assert!(text.contains(&format!("# HELP {family} ")), "missing HELP for {family}");
        assert!(text.contains(&format!("# TYPE {family} ")), "missing TYPE for {family}");
    }
    assert!(
        text.contains(r#"rtserver_stage_cache_misses_total{stage="analyze"} 2"#),
        "analyze stage missed once per distinct task:\n{text}"
    );
    assert!(
        text.contains(r#"rtserver_stage_cache_hits_total{stage="crpd_cell"}"#),
        "crpd_cell stage exported:\n{text}"
    );
    assert!(
        text.contains(r#"rtserver_requests_total{endpoint="wcrt"} 2"#),
        "wcrt request counter must reflect the two requests served:\n{text}"
    );

    // Histogram consistency for the wcrt endpoint: buckets are cumulative
    // and monotone, `+Inf` equals `_count`, and `_sum`/`_count` exist.
    let bucket_value = |line: &str| -> u64 {
        line.rsplit(' ').next().and_then(|v| v.parse().ok()).expect("bucket value")
    };
    let mut last = 0u64;
    let mut inf = None;
    for line in text.lines() {
        if !line.starts_with(r#"rtserver_request_duration_microseconds_bucket{endpoint="wcrt""#) {
            continue;
        }
        let value = bucket_value(line);
        assert!(value >= last, "buckets must be cumulative and monotone: {line}");
        last = value;
        if line.contains(r#"le="+Inf""#) {
            inf = Some(value);
        }
    }
    let count_line = text
        .lines()
        .find(|l| l.starts_with(r#"rtserver_request_duration_microseconds_count{endpoint="wcrt""#))
        .expect("wcrt _count line");
    let count = bucket_value(count_line);
    assert_eq!(count, 2, "two wcrt requests observed");
    assert_eq!(inf, Some(count), "+Inf bucket must equal _count");
    assert!(
        text.lines().any(|l| l
            .starts_with(r#"rtserver_request_duration_microseconds_sum{endpoint="wcrt""#)),
        "wcrt _sum line present"
    );

    // Skyline totals are process-wide and fed by every cold analysis,
    // with or without a tracing session.
    let kept_line = text
        .lines()
        .find(|l| l.starts_with("rtserver_skyline_points_kept_total "))
        .expect("skyline kept line");
    assert!(bucket_value(kept_line) > 0, "cold analyses built skylines: {kept_line}");

    assert_eq!(replies[3].get("ok").and_then(Json::as_bool), Some(true));
    handle.join().expect("clean exit");
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

/// The wire spec format is the on-disk spec format: a spec that parses
/// from disk must be accepted verbatim over the wire (with sources
/// resolved from the server's filesystem as the fallback).
#[test]
fn wire_spec_falls_back_to_server_filesystem_sources() {
    let dir = std::env::temp_dir().join(format!("rtserver-fs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let hi = dir.join("hi.s");
    std::fs::write(&hi, TASK_HI).expect("write hi.s");

    let opts = rtcli::ServeOptions {
        host: "127.0.0.1".to_string(),
        port: 0,
        threads: 4,
        ..rtcli::ServeOptions::default()
    };
    let handle = Server::spawn(&opts).expect("bind");
    // No `sources` map: the task file is an absolute path on the server.
    let line = Json::obj([
        ("cmd", Json::from("wcet")),
        ("spec", Json::from(format!("cache 64 2 16\ntask hi {} 5000 1\n", hi.display()).as_str())),
    ])
    .encode();
    let replies = roundtrip(handle.addr(), &[line, r#"{"cmd":"shutdown"}"#.to_string()]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true), "{:?}", replies[0]);
    assert!(replies[0].get("output").and_then(Json::as_str).unwrap().contains("WCET ="));
    handle.join().expect("clean exit");
}

/// The tentpole e2e for the rtflight ops plane: with `--slow-ms 0` every
/// request is captured, `statusz` exposes per-endpoint quantiles and
/// stage attribution, `journal` shows the ring wrapped at
/// `--flight-capacity`, and `flight` returns full span trees.
#[test]
fn flight_endpoints_expose_statusz_journal_and_black_box() {
    let opts = rtcli::ServeOptions {
        host: "127.0.0.1".to_string(),
        port: 0,
        threads: 2,
        slow_ms: Some(0),
        flight_capacity: 4,
        ..rtcli::ServeOptions::default()
    };
    let handle = Server::spawn(&opts).expect("bind ephemeral port");
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
        &[
            r#"{"cmd":"statusz"}"#.to_string(),
            r#"{"cmd":"journal","n":100}"#.to_string(),
            r#"{"cmd":"flight"}"#.to_string(),
        ],
    );
    let status = replies[0].get("status").expect("status payload");
    assert_eq!(status.get("flight_capacity").and_then(Json::as_u64), Some(4));
    assert_eq!(status.get("slow_ms").and_then(Json::as_u64), Some(0));
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
    // Stage-cache hit rates and per-stage wall time are on the status page.
    assert!(status.get("stage_cache").and_then(|s| s.get("analyze")).is_some());
    let stage_ns = status.get("stage_ns").expect("stage wall time");
    assert!(stage_ns.get("wcrt").and_then(Json::as_u64).unwrap() > 0, "wcrt stage attributed");
    assert!(stage_ns.get("request").and_then(Json::as_u64).unwrap() > 0, "request span attributed");

    // Journal: the 4-slot ring holds records 3, 4 (pings), 5 (wcrt) and
    // 6 (the statusz request just served), oldest first.
    let Some(Json::Arr(records)) = replies[1].get("journal") else {
        panic!("journal payload: {:?}", replies[1])
    };
    let ids: Vec<u64> =
        records.iter().map(|r| r.get("id").and_then(Json::as_u64).expect("id")).collect();
    assert_eq!(ids, [3, 4, 5, 6], "ring wrapped at capacity, oldest first");
    let wcrt_record = &records[2];
    assert_eq!(wcrt_record.get("endpoint").and_then(Json::as_str), Some("wcrt"));
    assert_eq!(wcrt_record.get("ok").and_then(Json::as_bool), Some(true));
    // The cold wcrt request missed the analyze stage once per task.
    let misses = wcrt_record.get("stage_misses").expect("stage misses");
    assert_eq!(misses.get("analyze").and_then(Json::as_u64), Some(2), "{wcrt_record:?}");

    // Black box: with --slow-ms 0 every request qualifies; the wcrt
    // capture carries its full span tree rooted at the request span.
    let Some(Json::Arr(flights)) = replies[2].get("flights") else {
        panic!("flights payload: {:?}", replies[2])
    };
    assert!(flights.len() >= 6, "every request was captured: {}", flights.len());
    let wcrt_flight = flights
        .iter()
        .find(|f| {
            f.get("record").and_then(|r| r.get("endpoint")).and_then(Json::as_str) == Some("wcrt")
        })
        .expect("captured wcrt flight");
    let Some(Json::Arr(spans)) = wcrt_flight.get("spans") else { panic!("spans") };
    assert!(spans.len() > 1, "wcrt must capture nested pipeline spans");
    let stage_at = |s: &Json| s.get("stage").and_then(Json::as_str).unwrap().to_string();
    assert!(spans.iter().any(|s| stage_at(s) == "request"), "request root span captured");
    assert!(spans.iter().any(|s| stage_at(s) == "wcrt"), "wcrt pipeline span captured");
    assert!(
        spans.iter().any(|s| s.get("depth").and_then(Json::as_u64).unwrap() >= 2),
        "nesting depth recorded"
    );
    for s in spans {
        assert!(s.get("dur_ns").and_then(Json::as_u64).is_some(), "{s:?}");
        assert!(s.get("start_ns").and_then(Json::as_u64).is_some(), "{s:?}");
    }

    // `metrics`, `metrics_prom` and `statusz` read one histogram per
    // endpoint. Each snapshot is taken before its own request commits,
    // so only the rows of the three ops endpoints move between them.
    let replies = roundtrip(
        addr,
        &[
            r#"{"cmd":"statusz"}"#.to_string(),
            r#"{"cmd":"metrics"}"#.to_string(),
            r#"{"cmd":"metrics_prom"}"#.to_string(),
        ],
    );
    let Some(Json::Obj(status_rows)) = replies[0].get("status").and_then(|s| s.get("endpoints"))
    else {
        panic!("statusz endpoints: {:?}", replies[0])
    };
    let Some(Json::Obj(metric_rows)) = replies[1].get("metrics").and_then(|m| m.get("endpoints"))
    else {
        panic!("metrics endpoints: {:?}", replies[1])
    };
    let prom = replies[2].get("output").and_then(Json::as_str).expect("exposition text");
    let prom_value = |family: &str, endpoint: &str| -> u64 {
        let prefix = format!("{family}{{endpoint=\"{endpoint}\"}} ");
        let line = prom.lines().find(|l| l.starts_with(&prefix)).expect(&prefix);
        line[prefix.len()..].parse().expect("integral sample")
    };
    for endpoint in ["flight", "journal", "ping", "wcrt"] {
        let (status_row, metric_row) = (&status_rows[endpoint], &metric_rows[endpoint]);
        for key in ["count", "errors", "p50_us", "p99_us", "max_us"] {
            assert_eq!(
                status_row.get(key).and_then(Json::as_u64),
                metric_row.get(key).and_then(Json::as_u64),
                "{endpoint} {key}: statusz {status_row:?} vs metrics {metric_row:?}"
            );
        }
        let count = metric_row.get("count").and_then(Json::as_u64).unwrap();
        assert_eq!(metric_row.get("requests").and_then(Json::as_u64), Some(count));
        assert_eq!(prom_value("rtserver_requests_total", endpoint), count);
        assert_eq!(prom_value("rtserver_request_duration_microseconds_count", endpoint), count);
        assert_eq!(
            Some(prom_value("rtserver_request_duration_microseconds_sum", endpoint)),
            metric_row.get("sum_us").and_then(Json::as_u64)
        );
        assert_eq!(
            Some(prom_value("rtserver_request_errors_total", endpoint)),
            metric_row.get("errors").and_then(Json::as_u64)
        );
    }
    assert_eq!(status_rows["ping"].get("count").and_then(Json::as_u64), Some(5));
    let statusz_count = |rows: &std::collections::BTreeMap<String, Json>| {
        rows["statusz"].get("count").and_then(Json::as_u64).unwrap()
    };
    assert_eq!(statusz_count(metric_rows), statusz_count(status_rows) + 1);

    let replies = roundtrip(addr, &[r#"{"cmd":"shutdown"}"#.to_string()]);
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true));
    handle.join().expect("clean exit");
}

/// Admission control end-to-end: at the cap (`--max-inflight 0` pins the
/// server at it permanently) every analysis request is shed with a typed
/// `overloaded` error while the ops plane keeps answering, the sheds are
/// on the books in `statusz` and the Prometheus exposition, and a
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

    let replies = roundtrip(
        addr,
        &[r#"{"cmd":"statusz"}"#.to_string(), r#"{"cmd":"metrics_prom"}"#.to_string()],
    );
    let status = replies[0].get("status").expect("status payload");
    assert_eq!(status.get("max_inflight").and_then(Json::as_u64), Some(0));
    assert_eq!(status.get("shed_total").and_then(Json::as_u64), Some(1));
    let wcrt = status.get("endpoints").and_then(|e| e.get("wcrt")).expect("shed-only endpoint");
    assert_eq!(wcrt.get("shed").and_then(Json::as_u64), Some(1), "{wcrt:?}");
    let text = replies[1].get("output").and_then(Json::as_str).expect("prometheus text");
    assert!(
        text.contains(r#"rtserver_shed_total{endpoint="wcrt"} 1"#),
        "shed counter exported:\n{text}"
    );
    assert!(text.contains("rtserver_max_inflight 0"), "cap gauge exported:\n{text}");

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
    let replies = roundtrip(addr, &[r#"{"cmd":"statusz"}"#.to_string()]);
    let wcrt = replies[0]
        .get("status")
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

/// Slow capture must trigger *only* for over-threshold requests: with an
/// unreachably high `--slow-ms` nothing lands in the black box (while the
/// journal still records everything), and without `--slow-ms` the flight
/// endpoint serves an empty list.
#[test]
fn slow_capture_triggers_only_over_threshold() {
    let opts = rtcli::ServeOptions {
        host: "127.0.0.1".to_string(),
        port: 0,
        threads: 2,
        slow_ms: Some(3_600_000),
        ..rtcli::ServeOptions::default()
    };
    let handle = Server::spawn(&opts).expect("bind ephemeral port");
    let replies = roundtrip(
        handle.addr(),
        &[
            request_line(1),
            r#"{"cmd":"flight"}"#.to_string(),
            r#"{"cmd":"statusz"}"#.to_string(),
            r#"{"cmd":"shutdown"}"#.to_string(),
        ],
    );
    assert_eq!(replies[0].get("ok").and_then(Json::as_bool), Some(true), "{:?}", replies[0]);
    let Some(Json::Arr(flights)) = replies[1].get("flights") else { panic!() };
    assert!(flights.is_empty(), "an hour-long threshold captures nothing: {flights:?}");
    let status = replies[2].get("status").expect("status");
    assert_eq!(status.get("slow_captures").and_then(Json::as_u64), Some(0));
    assert!(status.get("records_total").and_then(Json::as_u64).unwrap() >= 2, "journal still on");
    handle.join().expect("clean exit");
}

//! The wire protocol: one JSON object per line, in both directions.
//!
//! ## Requests
//!
//! ```text
//! {"id": 1, "cmd": "wcrt", "spec": "cache 512 4 16\ntask a a.s 1000 1\n",
//!  "sources": {"a.s": "start: li r1, 7\nhalt\n"}}
//! ```
//!
//! | `cmd`      | payload                                   | reply payload       |
//! |------------|-------------------------------------------|---------------------|
//! | `ping`     | —                                         | `"output": "pong"`  |
//! | `wcet`     | `spec` (+ optional `sources`)             | `trisc wcet` text per task |
//! | `crpd`     | `spec` with exactly two tasks             | `trisc crpd` text   |
//! | `wcrt`     | `spec`                                    | `trisc wcrt` text   |
//! | `sim`      | `spec` (+ optional `horizon` in cycles)   | `trisc sim` text    |
//! | `explore`  | `spec` + `grid` (grid-file text)          | streamed frames (see below) |
//! | `batch`    | `items` (array of wcet/crpd/wcrt/sim requests) | streamed frames (see below) |
//! | `metrics`  | —                                         | `"metrics": {...}` ops snapshot |
//! | `journal`  | optional `n` (record count, default 32)   | `"journal": [...]` last flight records |
//! | `shutdown` | —                                         | ack, then drain     |
//!
//! The `spec` payload is exactly the [`SystemSpec`] text format the
//! one-shot CLI reads from disk (`trisc wcrt system.spec`); `sources`
//! maps each task's `FILE` field to its inline assembly text, so every
//! request is self-contained. `sources` must name every task `FILE`: the
//! server never reads its own filesystem, and a missing key is an error
//! naming the task and the key.
//!
//! The `metrics` payload is the server's one ops snapshot. `"endpoints"`
//! holds one row per endpoint (`count`, `errors`, `shed`,
//! `deadline_misses`, `sum_us`, `max_us` and the `p50_us`/`p90_us`/
//! `p95_us`/`p99_us` latency bounds); `"stages"` maps each pipeline
//! stage (`assemble`, `analyze`, `crpd_cell`) to its `hits`/`misses`/
//! `entries`/`single_flight_waits`; `"stage_ns"` holds attributed wall
//! time per stage. Beside them sit `uptime_secs`, the `explore` gauges,
//! the `analysis_pool` shape, the `admission` gauges and the flight
//! recorder's `records_total`.
//!
//! ## Admission control
//!
//! Analysis-class requests (`wcet`/`crpd`/`wcrt`/`sim`/`explore`/
//! `batch`) may carry an optional `deadline_ms` field overriding the
//! server's `--deadline-ms`: a request whose queue wait already exceeds
//! its deadline is answered `{"ok": false, "code":
//! "deadline_exceeded", ...}` *before* any analysis runs. When the
//! server's count of in-flight analysis requests reaches
//! `--max-inflight`, new analysis requests are shed with `{"ok": false,
//! "code": "overloaded", ...}`; ops-plane commands (ping, metrics,
//! journal, …) neither count toward the cap nor shed, so the server
//! stays observable under overload.
//!
//! ## Responses
//!
//! Success: `{"id": 1, "ok": true, "output": "..."}` (plus `"metrics"`
//! for the metrics command). Failure: `{"id": 1, "ok": false, "error":
//! "..."}`, with a machine-readable `"code"` field (`overloaded`,
//! `deadline_exceeded`, `payload_too_large`) on typed errors — the
//! last one whenever a `spec`+`sources` payload (top-level or per
//! `batch` item) crosses [`MAX_SPEC_BYTES`]. The `id` is echoed
//! verbatim when the request carried one, so clients may pipeline
//! requests over one connection.
//!
//! `explore` and `batch` are the *streaming* commands: they answer with
//! several NDJSON frames sharing the request's `id`. `explore` emits one
//! `{"ok": true, "event": "points", "points": [...]}` frame per
//! evaluated batch (each point carries `index`, `schedulable` and its
//! rendered `row`), then a final `{"ok": true, "event": "done",
//! "points_total": N, "front": [indices], "front_size": F,
//! "output": "..."}` frame whose `output` holds the explained Pareto
//! front. `batch` emits one `{"ok": ..., "event": "result", "index": k,
//! "output"/"error": ...}` frame per item, in item order, then a final
//! `{"ok": true, "event": "done", "results": N, "errors": E}` frame.
//! Clients read frames until they see `event == "done"` (or a frame with
//! `ok == false` and no `event`).
//!
//! [`SystemSpec`]: rtcli::SystemSpec

use std::collections::BTreeMap;
use std::fmt;

use crate::json::Json;

/// A request-parse failure: a human-readable message plus an optional
/// machine-readable code for typed failure classes (today only
/// [`CODE_PAYLOAD_TOO_LARGE`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Machine-readable class, when the failure has one.
    pub code: Option<&'static str>,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    fn plain(message: impl Into<String>) -> ParseError {
        ParseError { code: None, message: message.into() }
    }

    fn too_large(message: String) -> ParseError {
        ParseError { code: Some(CODE_PAYLOAD_TOO_LARGE), message }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<String> for ParseError {
    fn from(message: String) -> ParseError {
        ParseError::plain(message)
    }
}

impl From<&str> for ParseError {
    fn from(message: &str) -> ParseError {
        ParseError::plain(message)
    }
}

/// The `code` value of responses rejecting a payload over
/// [`MAX_SPEC_BYTES`].
pub const CODE_PAYLOAD_TOO_LARGE: &str = "payload_too_large";

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed back in the response if present.
    pub id: Option<u64>,
    /// What to do.
    pub cmd: Command,
    /// Per-request deadline override (milliseconds of queue wait after
    /// which the request is rejected instead of analyzed). Falls back to
    /// the server's `--deadline-ms`; only analysis-class commands check.
    pub deadline_ms: Option<u64>,
}

/// The request payload per command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness probe.
    Ping,
    /// The ops snapshot: uptime, admission gauges, per-endpoint
    /// counters and quantiles, stage cache counters and wall time.
    Metrics,
    /// The last `n` flight records from the recorder's ring (the newest
    /// 512 survive; default 32).
    Journal {
        /// How many records to return (clamped to the ring capacity).
        n: Option<u64>,
    },
    /// Stop accepting connections, drain in-flight work, exit.
    Shutdown,
    /// Per-task WCET reports for every task of the spec.
    Wcet(SpecPayload),
    /// The four reload bounds for a two-task spec (first = preempted,
    /// second = preempting).
    Crpd(SpecPayload),
    /// The WCRT table for the spec's task system.
    Wcrt(SpecPayload),
    /// Scheduler co-simulation of the spec's task system.
    Sim {
        /// The task system.
        payload: SpecPayload,
        /// Simulation horizon in cycles (default: the CLI's).
        horizon: Option<u64>,
    },
    /// Design-space sweep over the spec; streams per-batch point frames
    /// and a final Pareto-front frame.
    Explore {
        /// The base task system the grid perturbs.
        payload: SpecPayload,
        /// Grid-file text declaring the swept axes (the same format
        /// `trisc explore` reads from disk; any `spec` directive inside
        /// it is ignored — the base system is this request's `spec`).
        grid: String,
    },
    /// Many analysis specs in one round-trip: streams one `result` frame
    /// per item (in item order) and a final `done` frame.
    Batch {
        /// The analysis requests to execute (wcet/crpd/wcrt/sim only).
        items: Vec<Command>,
    },
}

impl Command {
    /// The metrics label for this command.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Command::Ping => "ping",
            Command::Metrics => "metrics",
            Command::Journal { .. } => "journal",
            Command::Shutdown => "shutdown",
            Command::Wcet(_) => "wcet",
            Command::Crpd(_) => "crpd",
            Command::Wcrt(_) => "wcrt",
            Command::Sim { .. } => "sim",
            Command::Explore { .. } => "explore",
            Command::Batch { .. } => "batch",
        }
    }

    /// Whether this command runs analysis (and is therefore subject to
    /// shedding and deadlines), as opposed to the always-available ops
    /// plane.
    pub fn is_analysis(&self) -> bool {
        matches!(
            self,
            Command::Wcet(_)
                | Command::Crpd(_)
                | Command::Wcrt(_)
                | Command::Sim { .. }
                | Command::Explore { .. }
                | Command::Batch { .. }
        )
    }
}

/// A system spec travelling over the wire, with optional inline sources.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpecPayload {
    /// [`rtcli::SystemSpec`] text.
    pub spec: String,
    /// `FILE` field → assembly text. Every task's `FILE` must be a key
    /// here; the server never reads its own filesystem.
    pub sources: BTreeMap<String, String>,
}

impl SpecPayload {
    /// The payload's size as [`MAX_SPEC_BYTES`] counts it: the spec plus
    /// every `sources` key and text.
    pub fn bytes(&self) -> usize {
        self.sources.iter().map(|(file, text)| file.len() + text.len()).sum::<usize>()
            + self.spec.len()
    }
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for malformed JSON, a missing or unknown
    /// `cmd`, payload fields of the wrong type, or (typed with
    /// [`CODE_PAYLOAD_TOO_LARGE`]) a payload over [`MAX_SPEC_BYTES`].
    pub fn parse(line: &str) -> Result<Request, ParseError> {
        let doc = Json::parse(line).map_err(|e| ParseError::plain(e.to_string()))?;
        let id = match doc.get("id") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or("`id` must be a non-negative integer")?),
        };
        let deadline_ms = match doc.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or("`deadline_ms` must be a non-negative integer")?),
        };
        let cmd = parse_command(&doc)?;
        Ok(Request { id, cmd, deadline_ms })
    }
}

fn parse_command(doc: &Json) -> Result<Command, ParseError> {
    let cmd_name = doc.get("cmd").and_then(Json::as_str).ok_or("missing string field `cmd`")?;
    let cmd = match cmd_name {
        "ping" => Command::Ping,
        "metrics" => Command::Metrics,
        "journal" => {
            let n = match doc.get("n") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or("`n` must be a non-negative integer")?),
            };
            Command::Journal { n }
        }
        "shutdown" => Command::Shutdown,
        "batch" => {
            let Some(Json::Arr(items)) = doc.get("items") else {
                return Err("missing array field `items`".into());
            };
            if items.is_empty() {
                return Err("`items` must not be empty".into());
            }
            if items.len() > MAX_BATCH_ITEMS {
                return Err(format!(
                    "batch of {} items exceeds the {MAX_BATCH_ITEMS}-item limit",
                    items.len()
                )
                .into());
            }
            let items = items
                .iter()
                .enumerate()
                .map(|(index, item)| {
                    // Each item runs through `spec_payload` and is
                    // therefore individually capped at MAX_SPEC_BYTES;
                    // prefix the item index but keep the typed code.
                    let cmd = parse_command(item).map_err(|e| ParseError {
                        code: e.code,
                        message: format!("item {index}: {}", e.message),
                    })?;
                    if !matches!(
                        cmd,
                        Command::Wcet(_) | Command::Crpd(_) | Command::Wcrt(_) | Command::Sim { .. }
                    ) {
                        return Err(ParseError::plain(format!(
                            "item {index}: cmd `{}` is not batchable (expected wcet|crpd|wcrt|sim)",
                            cmd.endpoint()
                        )));
                    }
                    Ok(cmd)
                })
                .collect::<Result<Vec<Command>, ParseError>>()?;
            Command::Batch { items }
        }
        "wcet" => Command::Wcet(spec_payload(doc)?),
        "crpd" => Command::Crpd(spec_payload(doc)?),
        "wcrt" => Command::Wcrt(spec_payload(doc)?),
        "sim" => {
            let horizon = match doc.get("horizon") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or("`horizon` must be a non-negative integer")?),
            };
            Command::Sim { payload: spec_payload(doc)?, horizon }
        }
        "explore" => {
            let grid = doc
                .get("grid")
                .and_then(Json::as_str)
                .ok_or("missing string field `grid`")?
                .to_string();
            Command::Explore { payload: spec_payload(doc)?, grid }
        }
        other => {
            return Err(format!(
                "unknown cmd `{other}` (expected ping|wcet|crpd|wcrt|sim|explore|batch|metrics|journal|shutdown)"
            )
            .into())
        }
    };
    Ok(cmd)
}

/// Upper bound on the combined `spec` + `sources` payload of one
/// request. Typed rejection (instead of letting a multi-megabyte spec
/// reach the assembler) keeps one hostile or buggy client from pinning
/// a worker on parse work.
pub const MAX_SPEC_BYTES: usize = 1 << 20;

/// Upper bound on the items of one `batch` request (the per-item
/// [`MAX_SPEC_BYTES`] cap still applies to each item individually).
pub const MAX_BATCH_ITEMS: usize = 64;

fn spec_payload(doc: &Json) -> Result<SpecPayload, ParseError> {
    let spec =
        doc.get("spec").and_then(Json::as_str).ok_or("missing string field `spec`")?.to_string();
    let mut sources = BTreeMap::new();
    match doc.get("sources") {
        None | Some(Json::Null) => {}
        Some(Json::Obj(map)) => {
            for (file, text) in map {
                let text = text.as_str().ok_or_else(|| {
                    ParseError::plain(format!("source `{file}` must be a string"))
                })?;
                sources.insert(file.clone(), text.to_string());
            }
        }
        Some(_) => return Err("`sources` must be an object of strings".into()),
    }
    let payload = SpecPayload { spec, sources };
    let total = payload.bytes();
    if total > MAX_SPEC_BYTES {
        return Err(ParseError::too_large(format!(
            "spec payload of {total} bytes exceeds the {MAX_SPEC_BYTES}-byte limit"
        )));
    }
    Ok(payload)
}

fn id_json(id: Option<u64>) -> Json {
    id.map_or(Json::Null, Json::from)
}

/// Encodes a success response carrying output text.
pub fn ok_response(id: Option<u64>, output: &str) -> String {
    Json::obj([("id", id_json(id)), ("ok", Json::Bool(true)), ("output", Json::from(output))])
        .encode()
}

/// Encodes a success response carrying a structured payload under `key`.
pub fn ok_response_with(id: Option<u64>, key: &str, value: Json) -> String {
    Json::obj([("id", id_json(id)), ("ok", Json::Bool(true)), (key, value)]).encode()
}

/// Encodes a failure response.
pub fn err_response(id: Option<u64>, error: &str) -> String {
    Json::obj([("id", id_json(id)), ("ok", Json::Bool(false)), ("error", Json::from(error))])
        .encode()
}

/// Encodes a typed failure response with a machine-readable `code`
/// (`overloaded`, `deadline_exceeded`) alongside the human message.
pub fn err_response_coded(id: Option<u64>, code: &str, error: &str) -> String {
    Json::obj([
        ("id", id_json(id)),
        ("ok", Json::Bool(false)),
        ("code", Json::from(code)),
        ("error", Json::from(error)),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_command() {
        let r = Request::parse(r#"{"id":3,"cmd":"ping"}"#).unwrap();
        assert_eq!(r.id, Some(3));
        assert_eq!(r.cmd, Command::Ping);
        assert_eq!(r.cmd.endpoint(), "ping");

        let r = Request::parse(
            r#"{"cmd":"wcrt","spec":"task a a.s 1 1\n","sources":{"a.s":"halt\n"}}"#,
        )
        .unwrap();
        assert_eq!(r.id, None);
        let Command::Wcrt(p) = r.cmd else { panic!("expected wcrt") };
        assert_eq!(p.spec, "task a a.s 1 1\n");
        assert_eq!(p.sources.get("a.s").map(String::as_str), Some("halt\n"));

        let r = Request::parse(r#"{"cmd":"sim","spec":"s","horizon":4096}"#).unwrap();
        let Command::Sim { horizon, .. } = r.cmd else { panic!("expected sim") };
        assert_eq!(horizon, Some(4096));

        let r = Request::parse(r#"{"cmd":"metrics"}"#).unwrap();
        assert_eq!(r.cmd, Command::Metrics);
        assert_eq!(r.cmd.endpoint(), "metrics");

        let r = Request::parse(r#"{"cmd":"journal","n":5}"#).unwrap();
        assert_eq!(r.cmd, Command::Journal { n: Some(5) });
        assert_eq!(r.cmd.endpoint(), "journal");
        let r = Request::parse(r#"{"cmd":"journal"}"#).unwrap();
        assert_eq!(r.cmd, Command::Journal { n: None });

        let r = Request::parse(r#"{"cmd":"explore","spec":"s","grid":"sets 32 64\n"}"#).unwrap();
        assert_eq!(r.cmd.endpoint(), "explore");
        assert!(r.cmd.is_analysis());
        assert_eq!(r.deadline_ms, None);
        let Command::Explore { payload, grid } = r.cmd else { panic!("expected explore") };
        assert_eq!(payload.spec, "s");
        assert_eq!(grid, "sets 32 64\n");

        let r = Request::parse(
            r#"{"id":7,"cmd":"batch","deadline_ms":250,"items":[{"cmd":"wcet","spec":"a"},{"cmd":"sim","spec":"b","horizon":9}]}"#,
        )
        .unwrap();
        assert_eq!(r.id, Some(7));
        assert_eq!(r.deadline_ms, Some(250));
        assert_eq!(r.cmd.endpoint(), "batch");
        assert!(r.cmd.is_analysis());
        let Command::Batch { items } = r.cmd else { panic!("expected batch") };
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].endpoint(), "wcet");
        let Command::Sim { horizon, .. } = &items[1] else { panic!("expected sim item") };
        assert_eq!(*horizon, Some(9));

        assert!(!Command::Ping.is_analysis());
        assert!(!Command::Metrics.is_analysis());
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, needle) in [
            ("{", "invalid json"),
            (r#"{"cmd":"frobnicate"}"#, "unknown cmd"),
            (r#"{"cmd":"statusz"}"#, "unknown cmd `statusz`"),
            (r#"{"cmd":"metrics_prom"}"#, "unknown cmd `metrics_prom`"),
            (r#"{"cmd":"flight"}"#, "unknown cmd `flight`"),
            (
                r#"{"cmd":"peer_get","name":"a","source":"s","geometry":[1,1,4],"model":[1,1]}"#,
                "unknown cmd `peer_get` (expected ping|wcet|crpd|wcrt|sim|explore|batch|metrics|",
            ),
            (r#"{"cmd":"peer_put","artifact":{"name":"a"}}"#, "unknown cmd `peer_put`"),
            (r#"{"id":"x","cmd":"ping"}"#, "`id`"),
            (r#"{"cmd":"wcrt"}"#, "`spec`"),
            (r#"{"cmd":"wcrt","spec":"s","sources":[1]}"#, "`sources`"),
            (r#"{"cmd":"wcrt","spec":"s","sources":{"a.s":7}}"#, "a.s"),
            (r#"{"cmd":"sim","spec":"s","horizon":-1}"#, "`horizon`"),
            (r#"{"cmd":"journal","n":-3}"#, "`n`"),
            (r#"{"cmd":"explore","spec":"s"}"#, "`grid`"),
            (r#"{"cmd":"explore","grid":"g"}"#, "`spec`"),
            (r#"{"spec":"s"}"#, "`cmd`"),
            (r#"{"cmd":"ping","deadline_ms":-1}"#, "`deadline_ms`"),
            (r#"{"cmd":"batch"}"#, "`items`"),
            (r#"{"cmd":"batch","items":[]}"#, "empty"),
            (r#"{"cmd":"batch","items":[{"cmd":"ping"}]}"#, "not batchable"),
            (r#"{"cmd":"batch","items":[{"cmd":"wcet","spec":"s"},{"spec":"x"}]}"#, "item 1"),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.message.contains(needle), "{line}: {err}");
            assert_eq!(err.code, None, "{line} should not carry a typed code");
        }
    }

    #[test]
    fn rejects_oversized_spec_payloads() {
        let big = "x".repeat(MAX_SPEC_BYTES + 1);
        let line = format!(r#"{{"cmd":"wcrt","spec":"{big}"}}"#);
        let err = Request::parse(&line).unwrap_err();
        assert!(err.message.contains("exceeds"), "{err}");
        assert_eq!(err.code, Some(CODE_PAYLOAD_TOO_LARGE));

        // The limit covers spec + sources combined, and sits just above
        // the boundary: an exactly-at-limit payload is accepted.
        let spec = "task a a.s 1 1\n";
        let source = "y".repeat(MAX_SPEC_BYTES);
        let line = format!(r#"{{"cmd":"wcet","spec":"{spec}","sources":{{"a.s":"{source}"}}}}"#);
        let err = Request::parse(&line.replace('\n', "\\n")).unwrap_err();
        assert!(err.message.contains("exceeds"), "{err}");
        assert_eq!(err.code, Some(CODE_PAYLOAD_TOO_LARGE));

        let ok = format!(r#"{{"cmd":"wcrt","spec":"{}"}}"#, "z".repeat(MAX_SPEC_BYTES));
        assert!(Request::parse(&ok).is_ok());
    }

    #[test]
    fn oversized_batch_item_is_typed_and_indexed() {
        // The cap applies to each batch item individually, not just the
        // top-level line, and the typed code survives the item prefix.
        let big = "x".repeat(MAX_SPEC_BYTES + 1);
        let line = format!(
            r#"{{"cmd":"batch","items":[{{"cmd":"wcet","spec":"ok"}},{{"cmd":"wcrt","spec":"{big}"}}]}}"#
        );
        let err = Request::parse(&line).unwrap_err();
        assert!(err.message.contains("item 1"), "{err}");
        assert!(err.message.contains("exceeds"), "{err}");
        assert_eq!(err.code, Some(CODE_PAYLOAD_TOO_LARGE));
    }

    #[test]
    fn responses_are_single_line_json() {
        let ok = ok_response(Some(1), "two\nlines\n");
        assert!(!ok.contains('\n'));
        let doc = Json::parse(&ok).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("output").unwrap().as_str(), Some("two\nlines\n"));

        let err = err_response(None, "boom");
        let doc = Json::parse(&err).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("id"), Some(&Json::Null));

        let shed = err_response_coded(Some(4), "overloaded", "server at capacity");
        let doc = Json::parse(&shed).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("code").unwrap().as_str(), Some("overloaded"));
        assert_eq!(doc.get("id").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn rejects_oversized_batches() {
        let item = r#"{"cmd":"wcet","spec":"s"}"#;
        let items = vec![item; MAX_BATCH_ITEMS + 1].join(",");
        let err = Request::parse(&format!(r#"{{"cmd":"batch","items":[{items}]}}"#)).unwrap_err();
        assert!(err.message.contains("65 items exceeds"), "{err}");
        let items = vec![item; MAX_BATCH_ITEMS].join(",");
        assert!(Request::parse(&format!(r#"{{"cmd":"batch","items":[{items}]}}"#)).is_ok());
    }
}

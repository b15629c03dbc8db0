//! `trisc status`: a human-readable terminal view over a live daemon's
//! `metrics` and `journal` endpoints.
//!
//! The network half is a thin NDJSON client ([`fetch_status`]); the
//! rendering half ([`render_status`]) is a pure function over the two
//! JSON payloads, so the whole report is unit-testable without a server.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;

use rtcli::{CliError, StatusOptions};

use crate::json::Json;

/// Connects to a running daemon and returns its `metrics` and `journal`
/// payloads.
///
/// # Errors
///
/// Returns [`CliError::Io`] for connection/protocol failures and the
/// server's own message for an error response.
pub fn fetch_status(opts: &StatusOptions) -> Result<(Json, Json), CliError> {
    let addr = format!("{}:{}", opts.host, opts.port);
    let stream = TcpStream::connect(&addr).map_err(|e| CliError::Io(format!("{addr}: {e}")))?;
    let mut writer = BufWriter::new(stream.try_clone().map_err(|e| CliError::Io(e.to_string()))?);
    let mut reader = BufReader::new(stream);
    let mut ask = |line: String, key: &str| -> Result<Json, CliError> {
        writeln!(writer, "{line}")
            .and_then(|()| writer.flush())
            .map_err(|e| CliError::Io(format!("{addr}: {e}")))?;
        let mut response = String::new();
        reader.read_line(&mut response).map_err(|e| CliError::Io(format!("{addr}: {e}")))?;
        let doc =
            Json::parse(response.trim_end()).map_err(|e| CliError::Io(format!("{addr}: {e}")))?;
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            let message = doc.get("error").and_then(Json::as_str).unwrap_or("unknown error");
            return Err(CliError::Io(format!("{addr}: server error: {message}")));
        }
        doc.get(key)
            .cloned()
            .ok_or_else(|| CliError::Io(format!("{addr}: response missing `{key}`")))
    };
    let status = ask(r#"{"cmd":"metrics"}"#.to_string(), "metrics")?;
    let journal = ask(format!(r#"{{"cmd":"journal","n":{}}}"#, opts.journal), "journal")?;
    Ok((status, journal))
}

fn num(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Formats microseconds compactly: `850us`, `12.3ms`, `4.56s`.
fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// Renders the `trisc status` report from the two endpoint payloads.
pub fn render_status(status: &Json, journal: &Json) -> String {
    let mut out = String::new();
    let admission = status.get("admission").unwrap_or(&Json::Null);
    let cap = match admission.get("max_inflight").and_then(Json::as_u64) {
        Some(cap) => cap.to_string(),
        None => "?".to_string(),
    };
    let _ = writeln!(
        out,
        "rtserver up {}s | inflight {}/{cap} | conns {} | shed {} | {} flights recorded",
        num(status, "uptime_secs"),
        num(admission, "inflight"),
        num(admission, "open_connections"),
        num(admission, "shed_total"),
        num(status, "records_total"),
    );
    if let Some(Json::Obj(endpoints)) = status.get("endpoints") {
        let _ = writeln!(
            out,
            "  {:>12} {:>8} {:>6} {:>7} {:>6} {:>9} {:>9} {:>9} {:>9}",
            "endpoint", "count", "err", "dl_miss", "shed", "p50", "p90", "p99", "max"
        );
        for (name, e) in endpoints {
            let _ = writeln!(
                out,
                "  {:>12} {:>8} {:>6} {:>7} {:>6} {:>9} {:>9} {:>9} {:>9}",
                name,
                num(e, "count"),
                num(e, "errors"),
                num(e, "deadline_misses"),
                num(e, "shed"),
                fmt_us(num(e, "p50_us")),
                fmt_us(num(e, "p90_us")),
                fmt_us(num(e, "p99_us")),
                fmt_us(num(e, "max_us")),
            );
        }
    }
    if let Some(Json::Obj(stages)) = status.get("stages") {
        let parts: Vec<String> = stages
            .iter()
            .map(|(stage, s)| {
                let hits = num(s, "hits");
                let lookups = hits + num(s, "misses");
                let rate = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
                format!("{stage} {hits}/{lookups} ({:.0}%)", rate * 100.0)
            })
            .collect();
        let _ = writeln!(out, "  stage cache hits: {}", parts.join(", "));
    }
    if let Some(Json::Obj(stage_ns)) = status.get("stage_ns") {
        if !stage_ns.is_empty() {
            let mut pairs: Vec<(&String, u64)> =
                stage_ns.iter().map(|(k, v)| (k, v.as_u64().unwrap_or(0))).collect();
            pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            let parts: Vec<String> =
                pairs.iter().map(|(stage, ns)| format!("{stage} {}", fmt_us(ns / 1_000))).collect();
            let _ = writeln!(out, "  stage wall time: {}", parts.join(", "));
        }
    }
    if let Json::Arr(records) = journal {
        if !records.is_empty() {
            let _ = writeln!(out, "recent flights (oldest first):");
        }
        for r in records {
            let ok = if r.get("ok").and_then(Json::as_bool) == Some(true) { "ok" } else { "ERR" };
            let queue = num(r, "queue_us");
            let queue = if queue > 0 { format!(" queue {}", fmt_us(queue)) } else { String::new() };
            let _ = writeln!(
                out,
                "  #{:<6} {:>12} {:>9} {}{queue}",
                num(r, "id"),
                r.get("endpoint").and_then(Json::as_str).unwrap_or("?"),
                fmt_us(num(r, "total_us")),
                ok,
            );
        }
    }
    out
}

/// The `trisc status` entry point: fetch, render, return the report.
///
/// # Errors
///
/// Returns [`CliError::Io`] when the daemon is unreachable or replies
/// with an error.
pub fn run_status(opts: &StatusOptions) -> Result<String, CliError> {
    let (status, journal) = fetch_status(opts)?;
    Ok(render_status(&status, &journal))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_endpoints_stages_and_journal() {
        let status = Json::parse(
            r#"{"uptime_secs":12,"records_total":40,
                "admission":{"inflight":1,"max_inflight":256,"open_connections":7,
                             "shed_total":3},
                "endpoints":{"wcrt":{"count":30,"errors":1,"deadline_misses":2,"shed":3,
                                      "p50_us":8191,"p90_us":16383,
                                      "p99_us":32767,"max_us":30000},
                             "ping":{"count":10,"errors":0,"deadline_misses":0,"shed":0,
                                      "p50_us":63,"p90_us":63,
                                      "p99_us":127,"max_us":90}},
                "stage_ns":{"wcrt":5000000,"crpd":2000000},
                "stages":{"analyze":{"hits":6,"misses":2}}}"#,
        )
        .unwrap();
        let journal = Json::parse(
            r#"[{"id":38,"endpoint":"wcrt","total_us":12500,"ok":true,"queue_us":150},
                {"id":39,"endpoint":"ping","total_us":80,"ok":false,"queue_us":0}]"#,
        )
        .unwrap();
        let out = render_status(&status, &journal);
        assert!(
            out.starts_with(
                "rtserver up 12s | inflight 1/256 | conns 7 | shed 3 | 40 flights recorded\n"
            ),
            "{out}"
        );
        assert!(out.contains("dl_miss"), "{out}");
        assert!(out.contains("wcrt"), "{out}");
        assert!(out.contains("8.2ms"), "p50 rendered in ms: {out}");
        assert!(out.contains("analyze 6/8 (75%)"), "{out}");
        assert!(out.contains("stage wall time: wcrt 5.0ms, crpd 2.0ms"), "{out}");
        assert!(out.contains("#38"), "{out}");
        assert!(out.contains("queue 150us"), "{out}");
        assert!(out.contains("ERR"), "{out}");
    }

    #[test]
    fn renders_an_idle_server_without_panicking() {
        let status = Json::parse(
            r#"{"uptime_secs":0,"admission":{"inflight":0},"records_total":0,"endpoints":{},
                "stage_ns":{},"stages":{}}"#,
        )
        .unwrap();
        let out = render_status(&status, &Json::Arr(vec![]));
        assert!(
            out.starts_with(
                "rtserver up 0s | inflight 0/? | conns 0 | shed 0 | 0 flights recorded\n"
            ),
            "missing admission fields render `?`: {out}"
        );
        assert!(!out.contains("recent flights"), "{out}");
        assert!(!out.contains("cluster:"), "single-node reports have no cluster line: {out}");
    }

    #[test]
    fn fmt_us_picks_sensible_units() {
        assert_eq!(fmt_us(850), "850us");
        assert_eq!(fmt_us(12_300), "12.3ms");
        assert_eq!(fmt_us(4_560_000), "4.56s");
    }
}

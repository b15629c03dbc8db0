//! Built-in observability: the `metrics` and `metrics_prom` payloads.
//!
//! Every request is timed once, into the always-on [`FlightRecorder`]'s
//! per-endpoint log₂ latency histogram. Latencies land in buckets
//! `[2^i, 2^(i+1))` microseconds, so reported percentiles are upper
//! bounds with at most 2× resolution — plenty to tell a 50 µs cache hit
//! from a 50 ms cold analysis. [`Metrics`] keeps only what the recorder
//! does not: per-endpoint admission sheds and deadline misses, and the
//! explore gauges. [`Metrics::endpoint_rows`] merges the two into the
//! one per-endpoint row source that `metrics`, `metrics_prom` and
//! `statusz` all render.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;
use rtcli::store::ArtifactStore;
use rtobs::flight::{EndpointSummary, FlightRecorder, LogHistogram};

#[derive(Debug, Clone, Copy, Default)]
struct AdmissionCounts {
    shed: u64,
    deadline_misses: u64,
}

/// One endpoint's statistics, as every surface reports them.
#[derive(Debug, Clone)]
pub struct EndpointRow {
    /// Handled requests, errors and the latency histogram, straight from
    /// the flight recorder (all zero for an endpoint only ever shed).
    pub flight: EndpointSummary,
    /// Requests shed by admission control before any analysis ran (not
    /// in `flight`: the server never handled them).
    pub shed: u64,
    /// Requests rejected because their queue wait exceeded the deadline
    /// (these *are* also handled errors in `flight`).
    pub deadline_misses: u64,
}

/// Admission-control gauges owned by the server state, passed into
/// [`Metrics::snapshot`]/[`Metrics::prometheus`] so the registry stays a
/// pure recorder.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionSnapshot {
    /// Analysis requests currently dispatched (admission-counted).
    pub inflight: u64,
    /// The `--max-inflight` cap.
    pub max_inflight: u64,
    /// Analysis requests shed since startup.
    pub shed_total: u64,
    /// Connections currently open on the reactor.
    pub open_connections: u64,
    /// Reactor event loops.
    pub event_threads: u64,
}

/// The server-wide counters the flight recorder does not keep. One
/// instance lives in the shared server state.
#[derive(Debug, Default)]
pub struct Metrics {
    endpoints: Mutex<BTreeMap<&'static str, AdmissionCounts>>,
    /// Sweep points evaluated by `explore` requests, cumulative.
    explore_points: AtomicU64,
    /// Pareto-front size of the most recent completed `explore` sweep.
    explore_front_size: AtomicU64,
}

impl Metrics {
    /// Records one request for `endpoint` shed by admission control. Shed
    /// requests never ran, so they land only in the shed counter — never
    /// in the flight recorder's request count or latency histogram.
    pub fn record_shed(&self, endpoint: &'static str) {
        let mut endpoints = self.endpoints.lock().expect("metrics lock");
        endpoints.entry(endpoint).or_default().shed += 1;
    }

    /// Records one deadline miss for `endpoint` (the request was rejected
    /// after parse but before analysis; it still flies through the flight
    /// recorder as a handled error).
    pub fn record_deadline_miss(&self, endpoint: &'static str) {
        let mut endpoints = self.endpoints.lock().expect("metrics lock");
        endpoints.entry(endpoint).or_default().deadline_misses += 1;
    }

    /// Records one completed `explore` sweep: `points` accumulate, the
    /// front size tracks the latest sweep.
    pub fn record_explore(&self, points: u64, front_size: u64) {
        self.explore_points.fetch_add(points, Ordering::Relaxed);
        self.explore_front_size.store(front_size, Ordering::Relaxed);
    }

    /// Every endpoint that has flown through `flight` or been shed, in
    /// endpoint-name order, with its admission counters merged in. An
    /// endpoint that has only ever been shed never flew, so its flight
    /// summary is all zeros.
    pub fn endpoint_rows(&self, flight: &FlightRecorder) -> Vec<EndpointRow> {
        let mut rows: BTreeMap<&'static str, EndpointRow> = flight
            .endpoints()
            .into_iter()
            .map(|e| (e.endpoint, EndpointRow { flight: e, shed: 0, deadline_misses: 0 }))
            .collect();
        let admission = self.endpoints.lock().expect("metrics lock");
        for (&endpoint, counts) in admission.iter() {
            let row = rows.entry(endpoint).or_insert_with(|| EndpointRow {
                flight: EndpointSummary::new(endpoint, 0, LogHistogram::new().snapshot()),
                shed: 0,
                deadline_misses: 0,
            });
            row.shed = counts.shed;
            row.deadline_misses = counts.deadline_misses;
        }
        rows.into_values().collect()
    }

    /// Snapshots everything — uptime, per-endpoint counters and latency
    /// percentiles, the artifact-cache counters, and the analysis-pool
    /// shape (`analysis_threads` total, of which `analysis_workers` are
    /// spawned background threads) — as the `metrics` response payload.
    pub fn snapshot(
        &self,
        store: &ArtifactStore,
        flight: &FlightRecorder,
        analysis_threads: usize,
        analysis_workers: usize,
        admission: &AdmissionSnapshot,
    ) -> Json {
        let per_endpoint = self
            .endpoint_rows(flight)
            .into_iter()
            .map(|row| {
                let hist = &row.flight.hist;
                let json = Json::obj([
                    ("requests", Json::from(hist.count)),
                    ("errors", Json::from(row.flight.errors)),
                    ("shed", Json::from(row.shed)),
                    ("deadline_misses", Json::from(row.deadline_misses)),
                    ("count", Json::from(hist.count)),
                    ("sum_us", Json::from(hist.sum_us)),
                    ("max_us", Json::from(hist.max_us)),
                    ("p50_us", Json::from(hist.quantile_upper_bound(0.50))),
                    ("p95_us", Json::from(hist.quantile_upper_bound(0.95))),
                    ("p99_us", Json::from(hist.quantile_upper_bound(0.99))),
                ]);
                (row.flight.endpoint.to_string(), json)
            })
            .collect();
        let stages = store
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
        Json::obj([
            ("uptime_secs", Json::from(flight.uptime_secs())),
            ("endpoints", Json::Obj(per_endpoint)),
            (
                // The `analyze` stage's counters, kept under the historic
                // name for dashboards that predate the staged store.
                "artifact_cache",
                Json::obj([
                    ("hits", Json::from(store.hits())),
                    ("misses", Json::from(store.misses())),
                    ("entries", Json::from(store.len() as u64)),
                ]),
            ),
            ("stages", Json::Obj(stages)),
            (
                "explore",
                Json::obj([
                    ("points_total", Json::from(self.explore_points.load(Ordering::Relaxed))),
                    ("front_size", Json::from(self.explore_front_size.load(Ordering::Relaxed))),
                ]),
            ),
            (
                "analysis_pool",
                Json::obj([
                    ("threads", Json::from(analysis_threads as u64)),
                    ("background_workers", Json::from(analysis_workers as u64)),
                ]),
            ),
            (
                "admission",
                Json::obj([
                    ("inflight", Json::from(admission.inflight)),
                    ("max_inflight", Json::from(admission.max_inflight)),
                    ("shed_total", Json::from(admission.shed_total)),
                    ("open_connections", Json::from(admission.open_connections)),
                    ("event_threads", Json::from(admission.event_threads)),
                ]),
            ),
        ])
    }

    /// Renders everything in the Prometheus text exposition format (the
    /// `metrics_prom` response payload): the same data as [`snapshot`]
    /// plus the analysis pool's activity gauges and the flight recorder's
    /// inflight gauge, record counter, slow-capture counter and per-stage
    /// attributed wall time.
    ///
    /// The log₂ histograms translate directly: bucket `i` covers
    /// `[2^i, 2^(i+1))` µs, so its inclusive Prometheus bound is
    /// `le="2^(i+1)-1"` (latencies are integral µs), cumulative counts
    /// are monotone by construction, and `+Inf` equals `_count`.
    ///
    /// The output passes [`validate_prometheus`], which the tests pin.
    ///
    /// [`snapshot`]: Metrics::snapshot
    pub fn prometheus(
        &self,
        store: &ArtifactStore,
        pool: &rtpar::PoolStats,
        flight: &FlightRecorder,
        slow_captures: u64,
        admission: &AdmissionSnapshot,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut gauge = |name: &str, help: &str, value: &dyn std::fmt::Display| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        gauge(
            "rtserver_uptime_seconds",
            "Seconds since the server started.",
            &flight.uptime_secs(),
        );
        gauge(
            "rtserver_artifact_cache_entries",
            "Memoized analysis artifacts currently cached.",
            &store.len(),
        );
        gauge(
            "rtserver_analysis_pool_threads",
            "Total analysis parallelism (background workers + caller).",
            &pool.threads,
        );
        gauge(
            "rtserver_analysis_pool_queue_depth",
            "Batch tokens waiting in the analysis pool queue.",
            &pool.queue_depth,
        );
        gauge(
            "rtserver_analysis_pool_worker_utilization",
            "Fraction of analysis work items stolen by background workers.",
            &format_args!("{:.6}", pool.worker_utilization()),
        );
        gauge(
            "rtserver_explore_front_size",
            "Pareto-front size of the most recent explore sweep.",
            &self.explore_front_size.load(Ordering::Relaxed),
        );
        gauge(
            "rtserver_inflight",
            "Analysis requests currently dispatched (admission-counted).",
            &admission.inflight,
        );
        gauge(
            "rtserver_max_inflight",
            "The --max-inflight admission cap.",
            &admission.max_inflight,
        );
        gauge(
            "rtserver_open_connections",
            "Connections currently open on the reactor.",
            &admission.open_connections,
        );
        gauge("rtserver_event_threads", "Reactor event loops.", &admission.event_threads);
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter("rtserver_artifact_cache_hits_total", "Artifact cache hits.", store.hits());
        counter("rtserver_artifact_cache_misses_total", "Artifact cache misses.", store.misses());
        counter(
            "rtserver_analysis_pool_batches_total",
            "Fan-out batches executed by the analysis pool.",
            pool.batches,
        );
        counter(
            "rtserver_analysis_pool_items_inline_total",
            "Work items run inline by the submitting thread.",
            pool.items_inline,
        );
        counter(
            "rtserver_analysis_pool_items_stolen_total",
            "Work items stolen by background pool workers.",
            pool.items_stolen,
        );
        let skyline = flight.skyline_totals();
        counter(
            "rtserver_skyline_points_kept_total",
            "Pareto-maximal useful-footprint points kept by skyline pruning in this server's requests.",
            skyline.kept,
        );
        counter(
            "rtserver_skyline_points_pruned_total",
            "Dominated useful-footprint points discarded by skyline pruning in this server's requests.",
            skyline.pruned,
        );
        counter(
            "rtserver_explore_points_total",
            "Design-space sweep points evaluated by explore requests.",
            self.explore_points.load(Ordering::Relaxed),
        );
        counter(
            "rtserver_flight_records_total",
            "Flight records committed by the always-on recorder.",
            flight.records_total(),
        );
        counter(
            "rtserver_slow_requests_total",
            "Requests slower than --slow-ms captured into the black box.",
            slow_captures,
        );
        let _ = writeln!(
            out,
            "# HELP rtserver_stage_request_nanoseconds_total Wall time attributed per pipeline stage across all requests."
        );
        let _ = writeln!(out, "# TYPE rtserver_stage_request_nanoseconds_total counter");
        for (stage, ns) in flight.stage_totals() {
            let _ = writeln!(
                out,
                "rtserver_stage_request_nanoseconds_total{{stage=\"{}\"}} {ns}",
                escape_label_value(stage)
            );
        }
        // Per-stage DAG counters, labelled by pipeline stage.
        let stages = store.stage_stats();
        for (name, help, value) in [
            (
                "rtserver_stage_cache_hits_total",
                "Pipeline-stage cache hits (artifact reused).",
                (|s: &crpd::StageStats| s.hits) as fn(&crpd::StageStats) -> u64,
            ),
            (
                "rtserver_stage_cache_misses_total",
                "Pipeline-stage cache misses (stage re-ran).",
                |s| s.misses,
            ),
            (
                "rtserver_stage_single_flight_waits_total",
                "Lookups that blocked on another worker's in-flight computation.",
                |s| s.single_flight_waits,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for s in &stages {
                let _ = writeln!(
                    out,
                    "{name}{{stage=\"{}\"}} {}",
                    escape_label_value(s.stage),
                    value(s)
                );
            }
        }
        let _ = writeln!(out, "# HELP rtserver_stage_cache_entries Artifacts held per stage.");
        let _ = writeln!(out, "# TYPE rtserver_stage_cache_entries gauge");
        for s in &stages {
            let _ = writeln!(
                out,
                "rtserver_stage_cache_entries{{stage=\"{}\"}} {}",
                escape_label_value(s.stage),
                s.entries
            );
        }
        let rows = self.endpoint_rows(flight);
        for (name, help, value) in [
            (
                "rtserver_requests_total",
                "Handled requests per endpoint.",
                (|r: &EndpointRow| r.flight.hist.count) as fn(&EndpointRow) -> u64,
            ),
            ("rtserver_request_errors_total", "Failed requests per endpoint.", |r| r.flight.errors),
            ("rtserver_shed_total", "Requests shed by admission control per endpoint.", |r| r.shed),
            (
                "rtserver_deadline_misses_total",
                "Requests rejected past their queue-wait deadline per endpoint.",
                |r| r.deadline_misses,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for row in &rows {
                let endpoint = escape_label_value(row.flight.endpoint);
                let _ = writeln!(out, "{name}{{endpoint=\"{endpoint}\"}} {}", value(row));
            }
        }
        let hist = "rtserver_request_duration_microseconds";
        let _ = writeln!(out, "# HELP {hist} Request latency per endpoint, microseconds.");
        let _ = writeln!(out, "# TYPE {hist} histogram");
        for row in &rows {
            let name = escape_label_value(row.flight.endpoint);
            let latency = &row.flight.hist;
            let mut cumulative = 0;
            for (i, count) in latency.buckets.iter().enumerate() {
                cumulative += count;
                let le = (1u64 << (i + 1)) - 1;
                let _ =
                    writeln!(out, "{hist}_bucket{{endpoint=\"{name}\",le=\"{le}\"}} {cumulative}");
            }
            let _ =
                writeln!(out, "{hist}_bucket{{endpoint=\"{name}\",le=\"+Inf\"}} {}", latency.count);
            let _ = writeln!(out, "{hist}_sum{{endpoint=\"{name}\"}} {}", latency.sum_us);
            let _ = writeln!(out, "{hist}_count{{endpoint=\"{name}\"}} {}", latency.count);
        }
        out
    }
}

/// Escapes a label value for the Prometheus text exposition format:
/// backslash, double quote and newline become `\\`, `\"` and `\n`.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Checks a Prometheus text exposition for the conformance points the
/// scrape parsers actually reject: the text must end with a newline,
/// every sample's family must carry `# HELP` and `# TYPE` lines *before*
/// its first sample, no family may be declared twice, `# TYPE` must name
/// a known type, label values must use valid escapes, and sample values
/// must parse as numbers.
///
/// Histogram families implicitly declare their `_bucket`/`_sum`/`_count`
/// series; summaries likewise.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    if text.is_empty() {
        return Err("empty exposition".into());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".into());
    }
    let mut help: BTreeMap<&str, ()> = BTreeMap::new();
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if name.is_empty() {
                return Err(format!("HELP without a family name: `{line}`"));
            }
            if help.insert(name, ()).is_some() {
                return Err(format!("duplicate HELP for family `{name}`"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                return Err(format!("unknown TYPE `{kind}` for family `{name}`"));
            }
            if types.insert(name, kind).is_some() {
                return Err(format!("duplicate TYPE for family `{name}`"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // free-form comment
        }
        // Sample line: name[{labels}] value
        let name_end = line.find(['{', ' ']).ok_or_else(|| format!("malformed sample `{line}`"))?;
        let name = &line[..name_end];
        let family = types
            .contains_key(name)
            .then_some(name)
            .or_else(|| {
                ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
                    let base = name.strip_suffix(suffix)?;
                    matches!(types.get(base), Some(&"histogram") | Some(&"summary")).then_some(base)
                })
            })
            .ok_or_else(|| format!("sample `{name}` has no preceding TYPE declaration"))?;
        if !help.contains_key(family) {
            return Err(format!("sample `{name}` has no preceding HELP declaration"));
        }
        let rest = &line[name_end..];
        let value_part = if let Some(labels_and_value) = rest.strip_prefix('{') {
            let close = scan_labels(labels_and_value)
                .map_err(|e| format!("bad labels in `{line}`: {e}"))?;
            labels_and_value[close..].trim_start_matches('}').trim_start()
        } else {
            rest.trim_start()
        };
        let value = value_part.split(' ').next().unwrap_or("");
        if !matches!(value, "+Inf" | "-Inf" | "NaN") && value.parse::<f64>().is_err() {
            return Err(format!("non-numeric sample value `{value}` in `{line}`"));
        }
    }
    Ok(())
}

/// Scans a `name="value",...` label body, validating escapes; returns the
/// byte offset of the closing `}`.
fn scan_labels(body: &str) -> Result<usize, String> {
    let bytes = body.as_bytes();
    let mut i = 0;
    loop {
        if i >= bytes.len() {
            return Err("unterminated label set".into());
        }
        if bytes[i] == b'}' {
            return Ok(i);
        }
        // label name
        let eq = body[i..].find('=').ok_or("label without `=`")? + i;
        if body[i..eq].is_empty() {
            return Err("empty label name".into());
        }
        i = eq + 1;
        if bytes.get(i) != Some(&b'"') {
            return Err("label value must be double-quoted".into());
        }
        i += 1;
        loop {
            match bytes.get(i) {
                None => return Err("unterminated label value".into()),
                Some(b'"') => {
                    i += 1;
                    break;
                }
                Some(b'\\') => match bytes.get(i + 1) {
                    Some(b'\\') | Some(b'"') | Some(b'n') => i += 2,
                    _ => return Err("invalid escape in label value".into()),
                },
                Some(_) => i += 1,
            }
        }
        if bytes.get(i) == Some(&b',') {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtobs::flight::HIST_BUCKETS;
    use std::time::Duration;

    #[test]
    fn snapshot_shape() {
        let metrics = Metrics::default();
        let store = ArtifactStore::default();
        let flight = FlightRecorder::new(8);
        flight.begin("wcrt", 0, false).finish(true);
        {
            let scope = flight.begin("wcrt", 0, false);
            std::thread::sleep(Duration::from_millis(1));
            scope.finish(false);
        }
        flight.begin("ping", 0, false).finish(true);
        metrics.record_shed("wcrt");
        metrics.record_shed("wcrt");
        metrics.record_deadline_miss("wcrt");
        metrics.record_shed("crpd"); // shed only: never flew
        let admission = AdmissionSnapshot {
            inflight: 1,
            max_inflight: 256,
            shed_total: 2,
            open_connections: 3,
            event_threads: 2,
        };
        let snap = metrics.snapshot(&store, &flight, 4, 3, &admission);
        let endpoints = snap.get("endpoints").unwrap();
        let wcrt = endpoints.get("wcrt").unwrap();
        assert_eq!(wcrt.get("requests").unwrap().as_u64(), Some(2));
        assert_eq!(wcrt.get("errors").unwrap().as_u64(), Some(1));
        assert_eq!(wcrt.get("shed").unwrap().as_u64(), Some(2), "sheds are not requests");
        assert_eq!(wcrt.get("deadline_misses").unwrap().as_u64(), Some(1));
        // Latency is the flight recorder's histogram, read verbatim.
        let recorded = flight.endpoints().into_iter().find(|e| e.endpoint == "wcrt").unwrap();
        assert_eq!(wcrt.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(wcrt.get("sum_us").unwrap().as_u64(), Some(recorded.hist.sum_us));
        assert_eq!(wcrt.get("max_us").unwrap().as_u64(), Some(recorded.max_us));
        assert!(recorded.max_us >= 1_000, "the slept request is the max");
        assert_eq!(wcrt.get("p50_us").unwrap().as_u64(), Some(recorded.p50_us));
        assert_eq!(
            wcrt.get("p95_us").unwrap().as_u64(),
            Some(recorded.hist.quantile_upper_bound(0.95))
        );
        assert_eq!(wcrt.get("p99_us").unwrap().as_u64(), Some(recorded.p99_us));
        assert!(recorded.p99_us >= recorded.max_us);
        // A shed-only endpoint still gets a row, with zero latency.
        let crpd = endpoints.get("crpd").unwrap();
        assert_eq!(crpd.get("shed").unwrap().as_u64(), Some(1));
        for key in ["requests", "errors", "count", "sum_us", "max_us", "p50_us", "p99_us"] {
            assert_eq!(crpd.get(key).unwrap().as_u64(), Some(0), "{key}");
        }
        let cache = snap.get("artifact_cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(0));
        let stages = snap.get("stages").unwrap();
        for stage in ["assemble", "analyze", "crpd_cell"] {
            let s = stages.get(stage).unwrap_or_else(|| panic!("stage {stage} in metrics"));
            assert_eq!(s.get("hits").unwrap().as_u64(), Some(0));
            assert_eq!(s.get("misses").unwrap().as_u64(), Some(0));
            assert_eq!(s.get("entries").unwrap().as_u64(), Some(0));
            assert!(s.get("single_flight_waits").unwrap().as_u64().is_some());
        }
        assert!(snap.get("uptime_secs").unwrap().as_u64().is_some());
        let adm = snap.get("admission").unwrap();
        assert_eq!(adm.get("inflight").unwrap().as_u64(), Some(1));
        assert_eq!(adm.get("max_inflight").unwrap().as_u64(), Some(256));
        assert_eq!(adm.get("shed_total").unwrap().as_u64(), Some(2));
        assert_eq!(adm.get("open_connections").unwrap().as_u64(), Some(3));
        assert_eq!(adm.get("event_threads").unwrap().as_u64(), Some(2));
        let rows: Vec<(&str, u64, u64, u64)> = metrics
            .endpoint_rows(&flight)
            .iter()
            .map(|r| (r.flight.endpoint, r.flight.count, r.shed, r.deadline_misses))
            .collect();
        assert_eq!(rows, [("crpd", 0, 1, 0), ("ping", 1, 0, 0), ("wcrt", 2, 2, 1)]);
        metrics.record_explore(64, 5);
        metrics.record_explore(36, 3);
        let snap = metrics.snapshot(&store, &flight, 4, 3, &admission);
        let explore = snap.get("explore").unwrap();
        assert_eq!(explore.get("points_total").unwrap().as_u64(), Some(100));
        assert_eq!(explore.get("front_size").unwrap().as_u64(), Some(3), "latest sweep wins");
        let pool = snap.get("analysis_pool").unwrap();
        assert_eq!(pool.get("threads").unwrap().as_u64(), Some(4));
        assert_eq!(pool.get("background_workers").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let metrics = Metrics::default();
        let store = ArtifactStore::default();
        metrics.record_explore(200, 7);
        let pool = rtpar::Pool::new(1);
        pool.install(|| rtpar::par_map_range(4, |i| i));
        let flight = FlightRecorder::new(8);
        let scope = flight.begin("wcrt", 0, false);
        {
            let _span = rtobs::span("crpd");
            std::thread::sleep(Duration::from_millis(1));
        }
        scope.finish(true);
        flight.begin("wcrt", 0, false).finish(false);
        metrics.record_shed("wcrt");
        metrics.record_deadline_miss("wcrt");
        let admission = AdmissionSnapshot {
            inflight: 5,
            max_inflight: 64,
            shed_total: 1,
            open_connections: 9,
            event_threads: 2,
        };
        let text = metrics.prometheus(&store, &pool.stats(), &flight, 3, &admission);

        // Every metric family carries HELP and TYPE lines.
        for family in [
            "rtserver_uptime_seconds",
            "rtserver_requests_total",
            "rtserver_request_errors_total",
            "rtserver_request_duration_microseconds",
            "rtserver_analysis_pool_queue_depth",
            "rtserver_analysis_pool_items_inline_total",
            "rtserver_analysis_pool_worker_utilization",
            "rtserver_stage_cache_hits_total",
            "rtserver_stage_cache_misses_total",
            "rtserver_stage_cache_entries",
            "rtserver_stage_single_flight_waits_total",
            "rtserver_skyline_points_kept_total",
            "rtserver_skyline_points_pruned_total",
            "rtserver_explore_points_total",
            "rtserver_explore_front_size",
            "rtserver_inflight",
            "rtserver_max_inflight",
            "rtserver_open_connections",
            "rtserver_event_threads",
            "rtserver_shed_total",
            "rtserver_deadline_misses_total",
            "rtserver_flight_records_total",
            "rtserver_slow_requests_total",
            "rtserver_stage_request_nanoseconds_total",
        ] {
            assert!(text.contains(&format!("# HELP {family} ")), "missing HELP for {family}");
            assert!(text.contains(&format!("# TYPE {family} ")), "missing TYPE for {family}");
        }
        assert!(text.contains("rtserver_requests_total{endpoint=\"wcrt\"} 2"), "{text}");
        assert!(text.contains("rtserver_request_errors_total{endpoint=\"wcrt\"} 1"), "{text}");
        assert!(text.contains("rtserver_explore_points_total 200"), "{text}");
        assert!(text.contains("rtserver_explore_front_size 7"), "{text}");
        assert!(text.contains("rtserver_analysis_pool_items_inline_total 4"), "{text}");
        for stage in ["assemble", "analyze", "crpd_cell"] {
            assert!(
                text.contains(&format!("rtserver_stage_cache_hits_total{{stage=\"{stage}\"}} 0")),
                "{text}"
            );
            assert!(
                text.contains(&format!("rtserver_stage_cache_entries{{stage=\"{stage}\"}} 0")),
                "{text}"
            );
        }

        // The histogram family is the flight recorder's histogram:
        // cumulative buckets match it bucket by bucket (so they are
        // monotone), +Inf equals _count, and _sum holds its exact total.
        let recorded = flight.endpoints().into_iter().find(|e| e.endpoint == "wcrt").unwrap();
        let bucket_lines: Vec<&str> = text
            .lines()
            .filter(|l| {
                l.starts_with("rtserver_request_duration_microseconds_bucket{endpoint=\"wcrt\"")
            })
            .collect();
        assert_eq!(bucket_lines.len(), HIST_BUCKETS + 1, "all buckets plus +Inf");
        let mut cumulative = 0;
        for (i, line) in bucket_lines[..HIST_BUCKETS].iter().enumerate() {
            cumulative += recorded.hist.buckets[i];
            let le = (1u64 << (i + 1)) - 1;
            assert!(line.ends_with(&format!("le=\"{le}\"}} {cumulative}")), "{line}");
        }
        assert_eq!(cumulative, 2);
        assert!(
            text.contains(
                "rtserver_request_duration_microseconds_bucket{endpoint=\"wcrt\",le=\"+Inf\"} 2"
            ),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "rtserver_request_duration_microseconds_sum{{endpoint=\"wcrt\"}} {}",
                recorded.hist.sum_us
            )),
            "{text}"
        );
        assert!(
            text.contains("rtserver_request_duration_microseconds_count{endpoint=\"wcrt\"} 2"),
            "{text}"
        );

        // Admission families carry live values.
        assert!(text.contains("rtserver_inflight 5"), "{text}");
        assert!(text.contains("rtserver_max_inflight 64"), "{text}");
        assert!(text.contains("rtserver_open_connections 9"), "{text}");
        assert!(text.contains("rtserver_event_threads 2"), "{text}");
        assert!(text.contains("rtserver_shed_total{endpoint=\"wcrt\"} 1"), "{text}");
        assert!(text.contains("rtserver_deadline_misses_total{endpoint=\"wcrt\"} 1"), "{text}");
        assert!(text.contains("rtserver_flight_records_total 2"), "{text}");
        assert!(text.contains("rtserver_slow_requests_total 3"), "{text}");
        let crpd = text
            .lines()
            .find(|l| l.starts_with("rtserver_stage_request_nanoseconds_total{stage=\"crpd\"}"))
            .expect("crpd stage line");
        let ns: u64 = crpd.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(ns >= 1_000_000, "the 1 ms span must be attributed: {crpd}");

        // The full exposition passes the conformance validator.
        validate_prometheus(&text).unwrap();
    }

    #[test]
    fn escape_label_value_covers_the_three_specials() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn validator_rejects_nonconformant_expositions() {
        // A minimal conformant exposition passes.
        let good = "# HELP m Things.\n# TYPE m counter\nm 1\n";
        validate_prometheus(good).unwrap();
        let good_hist = "# HELP h H.\n# TYPE h histogram\n\
             h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n";
        validate_prometheus(good_hist).unwrap();
        let good_labels = "# HELP m M.\n# TYPE m gauge\nm{a=\"x\\\\y\\\"z\\n\",b=\"w\"} 2.5\n";
        validate_prometheus(good_labels).unwrap();

        for (text, needle) in [
            ("", "empty"),
            ("# HELP m M.\n# TYPE m counter\nm 1", "end with a newline"),
            ("m 1\n", "no preceding TYPE"),
            ("# TYPE m counter\nm 1\n", "no preceding HELP"),
            ("# HELP m M.\n# TYPE m counter\n# HELP m M.\nm 1\n", "duplicate HELP"),
            ("# HELP m M.\n# TYPE m counter\n# TYPE m gauge\nm 1\n", "duplicate TYPE"),
            ("# HELP m M.\n# TYPE m frobnicator\nm 1\n", "unknown TYPE"),
            ("# HELP m M.\n# TYPE m counter\nm{a=\"x\\q\"} 1\n", "invalid escape"),
            ("# HELP m M.\n# TYPE m counter\nm{a=\"x} 1\n", "unterminated"),
            ("# HELP m M.\n# TYPE m counter\nm{a=x} 1\n", "double-quoted"),
            ("# HELP m M.\n# TYPE m counter\nm potato\n", "non-numeric"),
            // _bucket series require a histogram/summary TYPE.
            ("# HELP m M.\n# TYPE m counter\nm_bucket{le=\"1\"} 1\n", "no preceding TYPE"),
        ] {
            let err = validate_prometheus(text).unwrap_err();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }
}

//! Built-in observability: per-endpoint request counters, error counters
//! and log₂-bucketed latency histograms, snapshotted by the `metrics`
//! request.
//!
//! Latencies land in buckets `[2^i, 2^(i+1))` microseconds, so reported
//! percentiles are upper bounds with at most 2× resolution — plenty to
//! tell a 50 µs cache hit from a 50 ms cold analysis, at a fixed 512-byte
//! footprint per endpoint and O(1) recording cost.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Json;
use rtcli::store::ArtifactStore;

/// Number of log₂ buckets: covers up to 2^40 µs (~13 days) per request.
const BUCKETS: usize = 40;

/// A log₂-bucketed latency histogram.
#[derive(Debug, Clone)]
struct Histogram {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))` µs (0 µs lands in
    /// bucket 0 too).
    buckets: [u64; BUCKETS],
    total: u64,
    /// Exact sum of every recorded sample, µs (buckets quantize; the sum
    /// does not, so mean latency stays exact).
    sum_us: u64,
    /// Largest recorded sample, µs.
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; BUCKETS], total: 0, sum_us: 0, max_us: 0 }
    }
}

impl Histogram {
    fn record(&mut self, micros: u64) {
        let index = (63 - u64::leading_zeros(micros.max(1)) as usize).min(BUCKETS - 1);
        self.buckets[index] += 1;
        self.total += 1;
        self.sum_us = self.sum_us.saturating_add(micros);
        self.max_us = self.max_us.max(micros);
    }

    /// The upper bound (in µs) of the bucket holding the `q`-quantile
    /// sample, or 0 with no samples. `q` in `[0, 1]`.
    fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        // ceil(q * total) with a floor of 1: the rank of the quantile
        // sample in ascending order.
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return (1u64 << (i + 1)) - 1;
            }
        }
        u64::MAX
    }
}

#[derive(Debug, Clone, Default)]
struct EndpointStats {
    requests: u64,
    errors: u64,
    /// Requests shed by admission control before any analysis ran (not
    /// counted in `requests`/`errors`: the server never handled them).
    shed: u64,
    /// Requests rejected because their queue wait exceeded the deadline
    /// (these *are* also counted as handled errors).
    deadline_misses: u64,
    latency: Histogram,
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

/// Server-wide metrics. One instance lives in the shared server state;
/// workers record one sample per handled request.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    endpoints: Mutex<BTreeMap<&'static str, EndpointStats>>,
    /// Sweep points evaluated by `explore` requests, cumulative.
    explore_points: AtomicU64,
    /// Pareto-front size of the most recent completed `explore` sweep.
    explore_front_size: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            endpoints: Mutex::new(BTreeMap::new()),
            explore_points: AtomicU64::new(0),
            explore_front_size: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// Records one handled request for `endpoint`.
    pub fn record(&self, endpoint: &'static str, ok: bool, elapsed: Duration) {
        let mut endpoints = self.endpoints.lock().expect("metrics lock");
        let stats = endpoints.entry(endpoint).or_default();
        stats.requests += 1;
        if !ok {
            stats.errors += 1;
        }
        stats.latency.record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records one request for `endpoint` shed by admission control. Shed
    /// requests never ran, so they land only in the shed counter — not in
    /// `requests`, `errors` or the latency histogram.
    pub fn record_shed(&self, endpoint: &'static str) {
        let mut endpoints = self.endpoints.lock().expect("metrics lock");
        endpoints.entry(endpoint).or_default().shed += 1;
    }

    /// Records one deadline miss for `endpoint` (the request was rejected
    /// after parse but before analysis; the caller still records it as a
    /// handled error via [`record`](Metrics::record)).
    pub fn record_deadline_miss(&self, endpoint: &'static str) {
        let mut endpoints = self.endpoints.lock().expect("metrics lock");
        endpoints.entry(endpoint).or_default().deadline_misses += 1;
    }

    /// Per-endpoint admission counters: `(endpoint, shed,
    /// deadline_misses)`, for the `statusz` payload.
    pub fn admission_by_endpoint(&self) -> Vec<(String, u64, u64)> {
        let endpoints = self.endpoints.lock().expect("metrics lock");
        endpoints
            .iter()
            .map(|(name, stats)| ((*name).to_string(), stats.shed, stats.deadline_misses))
            .collect()
    }

    /// Seconds since the server started.
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Records one completed `explore` sweep: `points` accumulate, the
    /// front size tracks the latest sweep.
    pub fn record_explore(&self, points: u64, front_size: u64) {
        self.explore_points.fetch_add(points, Ordering::Relaxed);
        self.explore_front_size.store(front_size, Ordering::Relaxed);
    }

    /// Snapshots everything — uptime, per-endpoint counters and latency
    /// percentiles, the artifact-cache counters, and the analysis-pool
    /// shape (`analysis_threads` total, of which `analysis_workers` are
    /// spawned background threads) — as the `metrics` response payload.
    pub fn snapshot(
        &self,
        store: &ArtifactStore,
        analysis_threads: usize,
        analysis_workers: usize,
        admission: &AdmissionSnapshot,
    ) -> Json {
        let endpoints = self.endpoints.lock().expect("metrics lock");
        let per_endpoint = endpoints
            .iter()
            .map(|(name, stats)| {
                let json = Json::obj([
                    ("requests", Json::from(stats.requests)),
                    ("errors", Json::from(stats.errors)),
                    ("shed", Json::from(stats.shed)),
                    ("deadline_misses", Json::from(stats.deadline_misses)),
                    ("count", Json::from(stats.latency.total)),
                    ("sum_us", Json::from(stats.latency.sum_us)),
                    ("max_us", Json::from(stats.latency.max_us)),
                    ("p50_us", Json::from(stats.latency.quantile_upper_bound(0.50))),
                    ("p95_us", Json::from(stats.latency.quantile_upper_bound(0.95))),
                    ("p99_us", Json::from(stats.latency.quantile_upper_bound(0.99))),
                ]);
                ((*name).to_string(), json)
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
            ("uptime_secs", Json::from(self.uptime_secs())),
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
        flight: &rtobs::flight::FlightRecorder,
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
        gauge("rtserver_uptime_seconds", "Seconds since the server started.", &self.uptime_secs());
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
        let (skyline_kept, skyline_pruned) = crpd::skyline_stats();
        counter(
            "rtserver_skyline_points_kept_total",
            "Pareto-maximal useful-footprint points kept by skyline pruning.",
            skyline_kept,
        );
        counter(
            "rtserver_skyline_points_pruned_total",
            "Dominated useful-footprint points discarded by skyline pruning.",
            skyline_pruned,
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
                (|s: &rtcli::store::StageStats| s.hits) as fn(&rtcli::store::StageStats) -> u64,
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
        let endpoints = self.endpoints.lock().expect("metrics lock");
        let _ = writeln!(out, "# HELP rtserver_requests_total Handled requests per endpoint.");
        let _ = writeln!(out, "# TYPE rtserver_requests_total counter");
        for (name, stats) in endpoints.iter() {
            let name = escape_label_value(name);
            let _ =
                writeln!(out, "rtserver_requests_total{{endpoint=\"{name}\"}} {}", stats.requests);
        }
        let _ = writeln!(out, "# HELP rtserver_request_errors_total Failed requests per endpoint.");
        let _ = writeln!(out, "# TYPE rtserver_request_errors_total counter");
        for (name, stats) in endpoints.iter() {
            let _ = writeln!(
                out,
                "rtserver_request_errors_total{{endpoint=\"{}\"}} {}",
                escape_label_value(name),
                stats.errors
            );
        }
        let _ = writeln!(
            out,
            "# HELP rtserver_shed_total Requests shed by admission control per endpoint."
        );
        let _ = writeln!(out, "# TYPE rtserver_shed_total counter");
        for (name, stats) in endpoints.iter() {
            let _ = writeln!(
                out,
                "rtserver_shed_total{{endpoint=\"{}\"}} {}",
                escape_label_value(name),
                stats.shed
            );
        }
        let _ = writeln!(
            out,
            "# HELP rtserver_deadline_misses_total Requests rejected past their queue-wait deadline per endpoint."
        );
        let _ = writeln!(out, "# TYPE rtserver_deadline_misses_total counter");
        for (name, stats) in endpoints.iter() {
            let _ = writeln!(
                out,
                "rtserver_deadline_misses_total{{endpoint=\"{}\"}} {}",
                escape_label_value(name),
                stats.deadline_misses
            );
        }
        let hist = "rtserver_request_duration_microseconds";
        let _ = writeln!(out, "# HELP {hist} Request latency per endpoint, microseconds.");
        let _ = writeln!(out, "# TYPE {hist} histogram");
        for (name, stats) in endpoints.iter() {
            let name = escape_label_value(name);
            let mut cumulative = 0;
            for (i, count) in stats.latency.buckets.iter().enumerate() {
                cumulative += count;
                let le = (1u64 << (i + 1)) - 1;
                let _ =
                    writeln!(out, "{hist}_bucket{{endpoint=\"{name}\",le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(
                out,
                "{hist}_bucket{{endpoint=\"{name}\",le=\"+Inf\"}} {}",
                stats.latency.total
            );
            let _ = writeln!(out, "{hist}_sum{{endpoint=\"{name}\"}} {}", stats.latency.sum_us);
            let _ = writeln!(out, "{hist}_count{{endpoint=\"{name}\"}} {}", stats.latency.total);
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

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        for micros in [0, 1, 2, 3, 4, 1000, 1_000_000] {
            h.record(micros);
        }
        assert_eq!(h.total, 7);
        assert_eq!(h.buckets[0], 2, "0 and 1 µs share bucket 0");
        assert_eq!(h.buckets[1], 2, "2 and 3 µs");
        assert_eq!(h.buckets[2], 1, "4 µs");
        assert_eq!(h.buckets[9], 1, "1000 µs in [512, 1024)");
        assert_eq!(h.buckets[19], 1, "1 s in [2^19, 2^20) µs");
    }

    #[test]
    fn quantiles_are_upper_bounds_and_monotone() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile_upper_bound(0.5), 0, "empty histogram");
        for _ in 0..98 {
            h.record(10); // bucket 3: [8, 16)
        }
        h.record(100_000); // bucket 16
        h.record(100_000);
        let p50 = h.quantile_upper_bound(0.50);
        let p95 = h.quantile_upper_bound(0.95);
        let p99 = h.quantile_upper_bound(0.99);
        assert_eq!(p50, 15, "the p50 sample is a 10 µs one");
        assert_eq!(p95, 15);
        assert!(p99 >= 100_000, "p99 must reach the slow tail, got {p99}");
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn snapshot_shape() {
        let metrics = Metrics::default();
        let store = ArtifactStore::default();
        metrics.record("wcrt", true, Duration::from_micros(300));
        metrics.record("wcrt", false, Duration::from_micros(700));
        metrics.record("ping", true, Duration::from_micros(2));
        metrics.record_shed("wcrt");
        metrics.record_shed("wcrt");
        metrics.record_deadline_miss("wcrt");
        let admission = AdmissionSnapshot {
            inflight: 1,
            max_inflight: 256,
            shed_total: 2,
            open_connections: 3,
            event_threads: 2,
        };
        let snap = metrics.snapshot(&store, 4, 3, &admission);
        let wcrt = snap.get("endpoints").unwrap().get("wcrt").unwrap();
        assert_eq!(wcrt.get("requests").unwrap().as_u64(), Some(2));
        assert_eq!(wcrt.get("errors").unwrap().as_u64(), Some(1));
        assert_eq!(wcrt.get("shed").unwrap().as_u64(), Some(2), "sheds are not requests");
        assert_eq!(wcrt.get("deadline_misses").unwrap().as_u64(), Some(1));
        assert_eq!(wcrt.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(wcrt.get("sum_us").unwrap().as_u64(), Some(1000));
        assert_eq!(wcrt.get("max_us").unwrap().as_u64(), Some(700));
        assert!(wcrt.get("p99_us").unwrap().as_u64().unwrap() >= 700);
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
        assert_eq!(
            metrics.admission_by_endpoint(),
            vec![("ping".to_string(), 0, 0), ("wcrt".to_string(), 2, 1)]
        );
        metrics.record_explore(64, 5);
        metrics.record_explore(36, 3);
        let snap = metrics.snapshot(&store, 4, 3, &admission);
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
        metrics.record("wcrt", true, Duration::from_micros(300));
        metrics.record("wcrt", false, Duration::from_micros(700));
        metrics.record_explore(200, 7);
        let pool = rtpar::Pool::new(1);
        pool.install(|| rtpar::par_map_range(4, |i| i));
        let flight = rtobs::flight::FlightRecorder::new(8);
        let scope = flight.begin("wcrt", 0, false);
        {
            let _span = rtobs::span("crpd");
            std::thread::sleep(Duration::from_millis(1));
        }
        scope.finish(true);
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

        // Histogram invariants: cumulative buckets are monotone, +Inf
        // equals _count, and _sum holds the exact total.
        let mut last = 0;
        let mut bucket_lines = 0;
        for line in text.lines().filter(|l| {
            l.starts_with("rtserver_request_duration_microseconds_bucket{endpoint=\"wcrt\"")
        }) {
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= last, "buckets must be cumulative: {line}");
            last = value;
            bucket_lines += 1;
        }
        assert_eq!(bucket_lines, super::BUCKETS + 1, "all buckets plus +Inf");
        assert!(
            text.contains(
                "rtserver_request_duration_microseconds_bucket{endpoint=\"wcrt\",le=\"+Inf\"} 2"
            ),
            "{text}"
        );
        assert!(
            text.contains("rtserver_request_duration_microseconds_sum{endpoint=\"wcrt\"} 1000"),
            "{text}"
        );
        assert!(
            text.contains("rtserver_request_duration_microseconds_count{endpoint=\"wcrt\"} 2"),
            "{text}"
        );
        // 300 µs lands in bucket [256, 512) and 700 µs in [512, 1024),
        // so the le="511" bucket holds exactly one sample.
        assert!(
            text.contains(
                "rtserver_request_duration_microseconds_bucket{endpoint=\"wcrt\",le=\"511\"} 1"
            ),
            "{text}"
        );

        // Admission families carry live values.
        assert!(text.contains("rtserver_inflight 5"), "{text}");
        assert!(text.contains("rtserver_max_inflight 64"), "{text}");
        assert!(text.contains("rtserver_open_connections 9"), "{text}");
        assert!(text.contains("rtserver_event_threads 2"), "{text}");
        assert!(text.contains("rtserver_shed_total{endpoint=\"wcrt\"} 1"), "{text}");
        assert!(text.contains("rtserver_deadline_misses_total{endpoint=\"wcrt\"} 1"), "{text}");
        assert!(text.contains("rtserver_flight_records_total 1"), "{text}");
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

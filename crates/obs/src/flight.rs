//! `rtflight`: an always-on, lock-light flight recorder for production
//! request observability.
//!
//! The opt-in [`Recorder`](crate::Recorder) (PR 3) is a debugging tool:
//! it stores every span with a heap-allocated label and path, so it is
//! off by default. This module is the production counterpart — cheap
//! enough to leave on for every request a server handles:
//!
//! * **[`FlightRecord`]** — one fixed-size, allocation-free summary per
//!   request: per-stage wall time, stage-cache hit/miss attribution,
//!   queue wait and outcome, with stages resolved to indices in the
//!   static [`STAGES`] registry.
//! * **[`FlightRecorder`]** — a fixed-capacity ring buffer of the most
//!   recent records plus per-endpoint log₂-bucket latency histograms
//!   ([`LogHistogram`]) with p50/p90/p99 readout. Committing a record is
//!   O(capacity-independent): one atomic fetch-add for the sequence
//!   number and one uncontended per-slot mutex store.
//! * **Flight context propagation** — a request installs its
//!   [`ActiveFlight`] frame thread-locally ([`FlightScope`]); spans
//!   opened anywhere under it attribute their duration to the frame.
//!   [`rtpar`](../../par) captures the submitting thread's context at
//!   batch creation ([`context`]) and re-installs it on helper threads
//!   ([`adopt`]), so work stolen by pool workers still attributes to the
//!   request that spawned it, at any thread count.
//!
//! The determinism contract of the parent crate extends here: analysis
//! code only ever *writes* into a flight frame, so recording cannot
//! perturb a single output byte (`tests/invariance.rs` pins this at 1
//! and 8 threads).
//!
//! Hot-path cost: when no frame is installed, a span probe is one
//! thread-local read. With a frame installed, attribution is two
//! `Instant` reads and one relaxed atomic add per span; optional span
//! capture (for slow-request black boxes) appends a fixed-size
//! [`SpanEvent`] into a buffer preallocated at frame creation, so
//! nothing allocates between `begin` and `finish`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Every pipeline stage a flight frame attributes, sorted so lookups can
/// binary-search. Span stages and stage-cache lookup stages share the
/// registry (`assemble`/`analyze` are both; `crpd_cell` is lookup-only;
/// `request` is the server's whole-request span).
pub const STAGES: [&str; 13] = [
    "analyze",
    "assemble",
    "ciip",
    "ciip_pack",
    "crpd",
    "crpd_cell",
    "dataflow",
    "explore",
    "mumbs",
    "request",
    "trace",
    "wcet",
    "wcrt",
];

/// Number of registered stages.
pub const STAGE_COUNT: usize = STAGES.len();

/// Resolves a stage name to its index in [`STAGES`]. Unregistered
/// stages return `None` and are simply not attributed (the opt-in
/// recorder still sees them).
pub fn stage_index(stage: &str) -> Option<usize> {
    STAGES.binary_search(&stage).ok()
}

/// Upper bound on captured [`SpanEvent`]s per flight frame; beyond it
/// events are counted as dropped instead of grown into.
pub const SPAN_EVENT_CAP: usize = 512;

/// One captured span inside a flight frame: fixed-size, no strings
/// beyond the `'static` stage name. The span tree is reconstructed from
/// `(depth, completion order)` alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stage name (a [`STAGES`] member).
    pub stage: &'static str,
    /// Nesting depth on the recording thread (1 = top-level).
    pub depth: u32,
    /// Start offset since the flight frame began, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
}

/// The live per-request collector. Shared (`Arc`) between the request
/// thread and any pool workers that execute batches on its behalf; all
/// fields are independently thread-safe so attribution never takes a
/// frame-wide lock on the timing path.
#[derive(Debug)]
pub struct ActiveFlight {
    started: Instant,
    capture_spans: bool,
    stage_ns: [AtomicU64; STAGE_COUNT],
    stage_hits: [AtomicU64; STAGE_COUNT],
    stage_misses: [AtomicU64; STAGE_COUNT],
    spans: Mutex<Vec<SpanEvent>>,
    spans_dropped: AtomicU64,
}

fn zeroed() -> [AtomicU64; STAGE_COUNT] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

fn load(a: &[AtomicU64; STAGE_COUNT]) -> [u64; STAGE_COUNT] {
    std::array::from_fn(|i| a[i].load(Ordering::Relaxed))
}

impl ActiveFlight {
    fn new(capture_spans: bool) -> ActiveFlight {
        ActiveFlight {
            started: Instant::now(),
            capture_spans,
            stage_ns: zeroed(),
            stage_hits: zeroed(),
            stage_misses: zeroed(),
            // The black-box buffer is preallocated at full capacity so
            // the span hot path never reallocates.
            spans: Mutex::new(Vec::with_capacity(if capture_spans { SPAN_EVENT_CAP } else { 0 })),
            spans_dropped: AtomicU64::new(0),
        }
    }

    fn lock_spans(&self) -> MutexGuard<'_, Vec<SpanEvent>> {
        self.spans.lock().expect("flight span buffer poisoned")
    }

    /// Attributes one finished span to this frame.
    pub(crate) fn note_span(&self, stage: &'static str, depth: u32, start: Instant, dur: Duration) {
        let Some(idx) = stage_index(stage) else { return };
        self.stage_ns[idx].fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
        if self.capture_spans {
            let start_ns =
                start.checked_duration_since(self.started).unwrap_or_default().as_nanos() as u64;
            let mut spans = self.lock_spans();
            if spans.len() < SPAN_EVENT_CAP {
                spans.push(SpanEvent { stage, depth, start_ns, dur_ns: dur.as_nanos() as u64 });
            } else {
                self.spans_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Attributes one stage-cache lookup to this frame.
    pub(crate) fn note_lookup(&self, stage: &'static str, hit: bool) {
        let Some(idx) = stage_index(stage) else { return };
        let tally = if hit { &self.stage_hits } else { &self.stage_misses };
        tally[idx].fetch_add(1, Ordering::Relaxed);
    }
}

thread_local! {
    /// The flight frame requests on this thread attribute into.
    static CURRENT: RefCell<Option<Arc<ActiveFlight>>> = const { RefCell::new(None) };
}

/// The flight frame installed on this thread, if any. `rtpar` calls this
/// on the submitting thread when a batch is created, so the frame can
/// follow the work onto helper threads.
pub fn context() -> Option<Arc<ActiveFlight>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Installs `flight` as this thread's frame for the guard's lifetime,
/// restoring the previous frame on drop. `adopt(None)` is a no-op guard
/// that leaves the thread's frame untouched.
pub fn adopt(flight: Option<Arc<ActiveFlight>>) -> AdoptGuard {
    match flight {
        None => AdoptGuard { previous: None, installed: false },
        Some(f) => {
            let previous = CURRENT.with(|c| c.borrow_mut().replace(f));
            AdoptGuard { previous, installed: true }
        }
    }
}

/// Guard returned by [`adopt`]; restores the thread's previous flight
/// frame when dropped.
pub struct AdoptGuard {
    previous: Option<Arc<ActiveFlight>>,
    installed: bool,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if self.installed {
            let previous = self.previous.take();
            CURRENT.with(|c| *c.borrow_mut() = previous);
        }
    }
}

/// One committed per-request record: fixed-size plain data, cheap to
/// copy in and out of the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecord {
    /// Monotone request sequence number (recorder-wide).
    pub id: u64,
    /// Endpoint label (`"wcrt"`, `"ping"`, …).
    pub endpoint: &'static str,
    /// Request start offset since the recorder was created, microseconds.
    pub start_us: u64,
    /// Wait between request readiness (line framed off the socket) and
    /// worker pickup, microseconds: the admission/queue latency.
    pub queue_us: u64,
    /// Whole-request wall time, microseconds.
    pub total_us: u64,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Per-stage attributed wall time, nanoseconds, indexed by [`STAGES`].
    pub stage_ns: [u64; STAGE_COUNT],
    /// Per-stage cache hits, indexed by [`STAGES`].
    pub stage_hits: [u64; STAGE_COUNT],
    /// Per-stage cache misses (stage re-ran), indexed by [`STAGES`].
    pub stage_misses: [u64; STAGE_COUNT],
    /// Span events dropped because the black-box buffer was full.
    pub spans_dropped: u64,
}

/// Number of log₂ latency buckets; bucket `i` holds durations in
/// `[2^i, 2^(i+1))` microseconds, the last bucket is open-ended.
pub const HIST_BUCKETS: usize = 40;

/// A lock-free fixed-log₂-bucket latency histogram over microsecond
/// durations. All updates are relaxed atomic adds; readers take a
/// point-in-time [`HistSnapshot`] whose count is the sum of its buckets,
/// so quantiles and cumulative bucket readouts never disagree with it.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Records one duration in microseconds. Lock-free.
    pub fn record(&self, micros: u64) {
        let idx = (63 - u64::leading_zeros(micros.max(1)) as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(micros, Ordering::Relaxed);
        self.max_us.fetch_max(micros, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: [u64; HIST_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistSnapshot {
            count: buckets.iter().sum(),
            buckets,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`LogHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts (`buckets[i]` covers `[2^i, 2^(i+1))` µs).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples (the sum of `buckets`).
    pub count: u64,
    /// Sum of all samples, microseconds.
    pub sum_us: u64,
    /// Largest sample, microseconds.
    pub max_us: u64,
}

impl HistSnapshot {
    /// Upper bound (inclusive, in µs) of the bucket containing the
    /// `q`-quantile sample, or 0 when empty. Exact in the sense that the
    /// true quantile is guaranteed ≤ the returned bound and ≥ half of it.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return (1u64 << (i + 1)) - 1;
            }
        }
        self.max_us
    }
}

/// Per-endpoint latency/error statistics, snapshotted out of a
/// [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct EndpointSummary {
    /// Endpoint label.
    pub endpoint: &'static str,
    /// Requests recorded.
    pub count: u64,
    /// Requests that failed.
    pub errors: u64,
    /// Median latency upper bound, microseconds.
    pub p50_us: u64,
    /// 90th-percentile latency upper bound, microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency upper bound, microseconds.
    pub p99_us: u64,
    /// Largest observed latency, microseconds.
    pub max_us: u64,
    /// The full histogram snapshot (for Prometheus bucket families).
    pub hist: HistSnapshot,
}

impl EndpointSummary {
    /// Summarizes one endpoint's latency histogram and error count.
    pub fn new(endpoint: &'static str, errors: u64, hist: HistSnapshot) -> EndpointSummary {
        EndpointSummary {
            endpoint,
            count: hist.count,
            errors,
            p50_us: hist.quantile_upper_bound(0.50),
            p90_us: hist.quantile_upper_bound(0.90),
            p99_us: hist.quantile_upper_bound(0.99),
            max_us: hist.max_us,
            hist,
        }
    }
}

#[derive(Debug, Default)]
struct EndpointStats {
    hist: LogHistogram,
    errors: AtomicU64,
}

/// The result of [`FlightScope::finish`]: the committed record plus the
/// captured span events (empty unless span capture was requested).
#[derive(Debug, Clone)]
pub struct FinishedFlight {
    /// The committed flight record (also stored in the ring).
    pub record: FlightRecord,
    /// Captured span events in completion order.
    pub spans: Vec<SpanEvent>,
}

/// The always-on flight recorder: a fixed-capacity ring of the most
/// recent [`FlightRecord`]s, per-endpoint [`LogHistogram`]s, cumulative
/// per-stage totals and an inflight gauge.
#[derive(Debug)]
pub struct FlightRecorder {
    started: Instant,
    capacity: usize,
    seq: AtomicU64,
    inflight: AtomicU64,
    slots: Box<[Mutex<Option<FlightRecord>>]>,
    endpoints: Mutex<BTreeMap<&'static str, Arc<EndpointStats>>>,
    stage_ns_total: [AtomicU64; STAGE_COUNT],
}

impl FlightRecorder {
    /// Creates a recorder keeping the last `capacity` records
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            started: Instant::now(),
            capacity,
            seq: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            endpoints: Mutex::new(BTreeMap::new()),
            stage_ns_total: zeroed(),
        }
    }

    /// Opens a flight frame for one request and installs it on the
    /// calling thread. `capture_spans` additionally buffers up to
    /// [`SPAN_EVENT_CAP`] span events for black-box retrieval.
    pub fn begin(
        &self,
        endpoint: &'static str,
        queue_us: u64,
        capture_spans: bool,
    ) -> FlightScope<'_> {
        self.inflight.fetch_add(1, Ordering::Relaxed);
        let flight = Arc::new(ActiveFlight::new(capture_spans));
        let guard = adopt(Some(flight.clone()));
        FlightScope {
            recorder: self,
            endpoint,
            queue_us,
            inner: Some(ScopeInner { flight, _adopt: guard }),
        }
    }

    /// Total records ever committed (the next record's id).
    pub fn records_total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Requests currently between `begin` and `finish`.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Seconds since the recorder was created.
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The most recent `last` records, oldest first. At most
    /// [`FlightRecorder::capacity`] records exist at any time.
    pub fn journal(&self, last: usize) -> Vec<FlightRecord> {
        let mut records: Vec<FlightRecord> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().expect("flight ring slot poisoned").clone())
            .collect();
        records.sort_by_key(|r| r.id);
        let skip = records.len().saturating_sub(last);
        records.split_off(skip)
    }

    /// Per-endpoint latency/error summaries, endpoint-name order.
    pub fn endpoints(&self) -> Vec<EndpointSummary> {
        let stats: Vec<(&'static str, Arc<EndpointStats>)> = {
            let map = self.endpoints.lock().expect("flight endpoint map poisoned");
            map.iter().map(|(k, v)| (*k, v.clone())).collect()
        };
        stats
            .into_iter()
            .map(|(endpoint, s)| {
                EndpointSummary::new(endpoint, s.errors.load(Ordering::Relaxed), s.hist.snapshot())
            })
            .collect()
    }

    /// Cumulative attributed wall time per stage across all committed
    /// records, `(stage, nanoseconds)` pairs in [`STAGES`] order.
    pub fn stage_totals(&self) -> Vec<(&'static str, u64)> {
        let totals = load(&self.stage_ns_total);
        STAGES.iter().zip(totals).map(|(s, ns)| (*s, ns)).collect()
    }

    fn commit(
        &self,
        flight: &ActiveFlight,
        endpoint: &'static str,
        queue_us: u64,
        ok: bool,
    ) -> FlightRecord {
        let total_us = flight.started.elapsed().as_micros() as u64;
        let start_us =
            flight.started.checked_duration_since(self.started).unwrap_or_default().as_micros()
                as u64;
        let id = self.seq.fetch_add(1, Ordering::Relaxed);
        let record = FlightRecord {
            id,
            endpoint,
            start_us,
            queue_us,
            total_us,
            ok,
            stage_ns: load(&flight.stage_ns),
            stage_hits: load(&flight.stage_hits),
            stage_misses: load(&flight.stage_misses),
            spans_dropped: flight.spans_dropped.load(Ordering::Relaxed),
        };
        for (total, ns) in self.stage_ns_total.iter().zip(record.stage_ns) {
            total.fetch_add(ns, Ordering::Relaxed);
        }
        *self.slots[(id as usize) % self.capacity].lock().expect("flight ring slot poisoned") =
            Some(record.clone());
        let stats = {
            let mut map = self.endpoints.lock().expect("flight endpoint map poisoned");
            map.entry(endpoint).or_default().clone()
        };
        stats.hist.record(total_us);
        if !ok {
            stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        record
    }
}

struct ScopeInner {
    flight: Arc<ActiveFlight>,
    _adopt: AdoptGuard,
}

/// One request's open flight frame; created by [`FlightRecorder::begin`].
/// Dropping without [`FlightScope::finish`] (a panicking request)
/// abandons the frame without committing a record.
pub struct FlightScope<'a> {
    recorder: &'a FlightRecorder,
    endpoint: &'static str,
    queue_us: u64,
    inner: Option<ScopeInner>,
}

impl FlightScope<'_> {
    /// The live frame, for tests and cross-thread adoption.
    pub fn flight(&self) -> Arc<ActiveFlight> {
        self.inner.as_ref().expect("flight scope already finished").flight.clone()
    }

    /// Ends the frame: uninstalls it from the thread, commits the record
    /// into the ring and histograms, and returns it together with any
    /// captured span events.
    pub fn finish(mut self, ok: bool) -> FinishedFlight {
        let ScopeInner { flight, _adopt } = self.inner.take().expect("flight scope finished twice");
        // Uninstall from the thread before reading, so no further spans
        // land in the frame while the record is being assembled.
        drop(_adopt);
        let record = self.recorder.commit(&flight, self.endpoint, self.queue_us, ok);
        let spans = std::mem::take(&mut *flight.lock_spans());
        FinishedFlight { record, spans }
    }
}

impl Drop for FlightScope<'_> {
    fn drop(&mut self) {
        // Panic path: `finish` never ran. Release the inflight slot but
        // commit nothing.
        if self.inner.take().is_some() {
            self.recorder.inflight.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Rate/ETA heartbeat for long-running campaigns: [`Heartbeat::poll`]
/// returns a formatted progress line at most once per interval.
pub struct Heartbeat {
    every: Duration,
    started: Instant,
    next_at: Duration,
}

impl Heartbeat {
    /// A heartbeat that fires every `every` (first fire after one full
    /// interval).
    pub fn new(every: Duration) -> Heartbeat {
        Heartbeat {
            every: every.max(Duration::from_millis(1)),
            started: Instant::now(),
            next_at: every,
        }
    }

    /// Reports progress: `done` units finished, with an optional known
    /// `total`. Returns a line like `1280/4096 points (31.2%), 412/s,
    /// ETA 6.8s` when the interval has elapsed, `None` otherwise.
    pub fn poll(&mut self, done: u64, total: Option<u64>) -> Option<String> {
        let elapsed = self.started.elapsed();
        if elapsed < self.next_at {
            return None;
        }
        while self.next_at <= elapsed {
            self.next_at += self.every;
        }
        let rate = done as f64 / elapsed.as_secs_f64().max(1e-9);
        Some(match total {
            Some(total) if total > 0 => {
                let pct = 100.0 * done as f64 / total as f64;
                let eta = total.saturating_sub(done) as f64 / rate.max(1e-9);
                format!("{done}/{total} points ({pct:.1}%), {rate:.0}/s, ETA {eta:.1}s")
            }
            _ => {
                format!("{done} points, {rate:.0}/s, elapsed {:.1}s", elapsed.as_secs_f64())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_registry_is_sorted_and_resolves() {
        let mut sorted = STAGES;
        sorted.sort_unstable();
        assert_eq!(sorted, STAGES, "STAGES must stay sorted for binary search");
        for (i, stage) in STAGES.iter().enumerate() {
            assert_eq!(stage_index(stage), Some(i));
        }
        assert_eq!(stage_index("no-such-stage"), None);
    }

    #[test]
    fn frames_attribute_spans_and_lookups() {
        let recorder = FlightRecorder::new(8);
        let scope = recorder.begin("wcrt", 42, true);
        assert_eq!(recorder.inflight(), 1);
        let flight = scope.flight();
        let t0 = Instant::now();
        flight.note_span("crpd", 2, t0, Duration::from_nanos(1_500));
        flight.note_span("crpd", 2, t0, Duration::from_nanos(500));
        flight.note_span("unknown-stage", 1, t0, Duration::from_nanos(999));
        flight.note_lookup("analyze", true);
        flight.note_lookup("analyze", false);
        flight.note_lookup("crpd_cell", true);
        let finished = scope.finish(true);
        assert_eq!(recorder.inflight(), 0);
        let crpd = stage_index("crpd").unwrap();
        let analyze = stage_index("analyze").unwrap();
        let cell = stage_index("crpd_cell").unwrap();
        assert_eq!(finished.record.stage_ns[crpd], 2_000);
        assert_eq!(finished.record.stage_hits[analyze], 1);
        assert_eq!(finished.record.stage_misses[analyze], 1);
        assert_eq!(finished.record.stage_hits[cell], 1);
        assert_eq!(finished.record.queue_us, 42);
        assert!(finished.record.ok);
        assert_eq!(finished.spans.len(), 2, "unknown stages are not captured");
        assert_eq!(finished.spans[0].dur_ns, 1_500);
        assert_eq!(recorder.stage_totals()[crpd], ("crpd", 2_000));
    }

    #[test]
    fn ring_keeps_only_the_newest_records() {
        let recorder = FlightRecorder::new(4);
        for k in 0..7 {
            let scope = recorder.begin("ping", 0, false);
            scope.finish(k % 2 == 0);
        }
        assert_eq!(recorder.records_total(), 7);
        let journal = recorder.journal(100);
        let ids: Vec<u64> = journal.iter().map(|r| r.id).collect();
        assert_eq!(ids, [3, 4, 5, 6], "ring wraps, keeps newest, oldest first");
        let ids: Vec<u64> = recorder.journal(2).iter().map(|r| r.id).collect();
        assert_eq!(ids, [5, 6], "journal(n) trims to the newest n");
    }

    #[test]
    fn endpoint_histograms_expose_quantiles_and_errors() {
        let hist = LogHistogram::new();
        for us in [1u64, 2, 3, 100, 100, 100, 100, 100, 100, 5_000] {
            hist.record(us);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 10);
        assert_eq!(snap.max_us, 5_000);
        assert_eq!(snap.sum_us, 5_606, "the sum is exact; only buckets quantize");
        // p50 rank 5 lands in the [64,128) bucket -> bound 127.
        assert_eq!(snap.quantile_upper_bound(0.50), 127);
        assert_eq!(snap.quantile_upper_bound(0.99), 8_191);
        assert_eq!(snap.quantile_upper_bound(0.0), 1, "rank clamps to the first sample");

        // Buckets are log₂: [2^i, 2^(i+1)) µs, with 0 µs in bucket 0.
        let hist = LogHistogram::new();
        for us in [0u64, 1, 2, 3, 4, 1_000, 1_000_000] {
            hist.record(us);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.buckets[0], 2, "0 and 1 µs share bucket 0");
        assert_eq!(snap.buckets[1], 2, "2 and 3 µs");
        assert_eq!(snap.buckets[2], 1, "4 µs");
        assert_eq!(snap.buckets[9], 1, "1000 µs in [512, 1024)");
        assert_eq!(snap.buckets[19], 1, "1 s in [2^19, 2^20) µs");
        assert_eq!(snap.sum_us, 1_001_010);

        // Quantiles are bucket upper bounds, monotone in q, and reach a
        // 2% slow tail at p99.
        let hist = LogHistogram::new();
        for _ in 0..98 {
            hist.record(10); // bucket 3: [8, 16)
        }
        hist.record(100_000); // bucket 16
        hist.record(100_000);
        let snap = hist.snapshot();
        let (p50, p95, p99) = (
            snap.quantile_upper_bound(0.50),
            snap.quantile_upper_bound(0.95),
            snap.quantile_upper_bound(0.99),
        );
        assert_eq!(p50, 15, "the p50 sample is a 10 µs one");
        assert_eq!(p95, 15);
        assert!(p99 >= 100_000, "p99 must reach the slow tail, got {p99}");
        assert_eq!(snap.sum_us, 98 * 10 + 2 * 100_000);
        assert_eq!(
            HistSnapshot { buckets: [0; HIST_BUCKETS], count: 0, sum_us: 0, max_us: 0 }
                .quantile_upper_bound(0.5),
            0
        );

        let recorder = FlightRecorder::new(2);
        recorder.begin("wcrt", 0, false).finish(true);
        recorder.begin("wcrt", 0, false).finish(false);
        recorder.begin("ping", 0, false).finish(true);
        let endpoints = recorder.endpoints();
        let names: Vec<&str> = endpoints.iter().map(|e| e.endpoint).collect();
        assert_eq!(names, ["ping", "wcrt"]);
        assert_eq!(endpoints[1].count, 2);
        assert_eq!(endpoints[1].errors, 1);
        assert!(endpoints[1].p99_us >= endpoints[1].p50_us);
    }

    #[test]
    fn span_capture_is_bounded() {
        let recorder = FlightRecorder::new(1);
        let scope = recorder.begin("wcrt", 0, true);
        let flight = scope.flight();
        let t0 = Instant::now();
        for _ in 0..(SPAN_EVENT_CAP + 10) {
            flight.note_span("crpd", 1, t0, Duration::from_nanos(1));
        }
        let finished = scope.finish(true);
        assert_eq!(finished.spans.len(), SPAN_EVENT_CAP);
        assert_eq!(finished.record.spans_dropped, 10);
    }

    #[test]
    fn capture_off_records_no_spans() {
        let recorder = FlightRecorder::new(1);
        let scope = recorder.begin("wcrt", 0, false);
        let flight = scope.flight();
        flight.note_span("crpd", 1, Instant::now(), Duration::from_nanos(7));
        let finished = scope.finish(true);
        assert!(finished.spans.is_empty());
        assert_eq!(finished.record.stage_ns[stage_index("crpd").unwrap()], 7);
    }

    #[test]
    fn adoption_nests_and_restores() {
        assert!(context().is_none());
        let recorder = FlightRecorder::new(1);
        let scope = recorder.begin("wcrt", 0, false);
        let outer = scope.flight();
        assert!(Arc::ptr_eq(&context().unwrap(), &outer));
        {
            let inner = Arc::new(ActiveFlight::new(false));
            let _guard = adopt(Some(inner.clone()));
            assert!(Arc::ptr_eq(&context().unwrap(), &inner));
            let _noop = adopt(None);
            assert!(Arc::ptr_eq(&context().unwrap(), &inner), "adopt(None) leaves the frame");
        }
        assert!(Arc::ptr_eq(&context().unwrap(), &outer), "previous frame restored");
        scope.finish(true);
        assert!(context().is_none(), "finish uninstalls the frame");
    }

    #[test]
    fn abandoned_scope_releases_inflight_without_a_record() {
        let recorder = FlightRecorder::new(4);
        {
            let _scope = recorder.begin("wcrt", 0, false);
            assert_eq!(recorder.inflight(), 1);
        }
        assert_eq!(recorder.inflight(), 0);
        assert_eq!(recorder.records_total(), 0);
        assert!(recorder.journal(10).is_empty());
    }

    #[test]
    fn heartbeat_formats_rate_and_eta() {
        let mut hb = Heartbeat::new(Duration::from_secs(0));
        let line = hb.poll(50, Some(200)).expect("zero interval fires immediately");
        assert!(line.starts_with("50/200 points (25.0%), "), "{line}");
        assert!(line.contains("ETA"), "{line}");
        let mut hb = Heartbeat::new(Duration::from_secs(3600));
        assert!(hb.poll(1, None).is_none(), "long interval has not elapsed");
        let mut hb = Heartbeat::new(Duration::from_secs(0));
        let line = hb.poll(7, None).expect("fires");
        assert!(line.starts_with("7 points, "), "{line}");
    }
}

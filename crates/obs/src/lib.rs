//! `rtobs`: zero-dependency, opt-in observability for the analysis pipeline.
//!
//! The crate provides three things, all scoped to the calling thread:
//!
//! * **Spans** — scoped wall-clock timings with stable identifiers derived
//!   from span nesting (a `/`-joined path of enclosing stage names plus an
//!   occurrence index), emitted as Chrome `trace_event` JSON.
//! * **Typed counters** — recorded at the source by the analysis crates:
//!   per-set cache hits/misses/evictions, RMB/LMB dataflow fixpoint
//!   rounds, per-(i,j) CRPD matrix cell costs and per-iteration `R_i^k`
//!   values of the Eq. 7 recurrence.
//! * **A determinism contract** — timestamps and counters are *attached* to
//!   a run, never consumed by it. Analysis code may write into the
//!   recorder but must never read it back, so enabling collection cannot
//!   perturb a single output byte. When no recorder is installed every
//!   entry point is one thread-local read and a no-op.
//!
//! Every thread has one [`Context`]: the [`Recorder`] of an opt-in
//! [`Session`] and the always-on [`flight`] frame of a request. [`begin`]
//! installs a recorder on the calling thread (or joins the one there);
//! dropping the [`Session`] restores the previous context. Other threads
//! never see it, except `rtpar` helpers running the thread's batches: a
//! batch captures its submitter's [`context`] and helpers [`adopt`]
//! exactly that. So concurrent sessions on different threads never mix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// What one thread records into: the recorder of an opt-in [`Session`]
/// and the always-on [`flight`] frame of a request. Either may be absent.
#[derive(Clone, Default)]
pub struct Context {
    recorder: Option<Arc<Recorder>>,
    flight: Option<Arc<flight::ActiveFlight>>,
}

thread_local! {
    /// The calling thread's recording context.
    static CONTEXT: RefCell<Context> =
        const { RefCell::new(Context { recorder: None, flight: None }) };
    /// Stack of enclosing span stage names on this thread; the source of
    /// the stable span path.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's context. `rtpar` captures it when a batch is
/// created, so the batch's work records where its submitter records.
pub fn context() -> Context {
    CONTEXT.with(|c| c.borrow().clone())
}

/// Installs `context` as the calling thread's context for the guard's
/// lifetime, restoring the previous one on drop.
pub fn adopt(context: Context) -> AdoptGuard {
    let previous = CONTEXT.with(|c| c.replace(context));
    AdoptGuard { previous, _thread: PhantomData }
}

/// Guard returned by [`adopt`]; restores the thread's previous context
/// when dropped. Bound to the thread that made it.
pub struct AdoptGuard {
    previous: Context,
    _thread: PhantomData<*const ()>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        let previous = std::mem::take(&mut self.previous);
        // During thread teardown the slot may already be gone. The
        // replaced context drops outside the slot's borrow.
        let _replaced = CONTEXT.try_with(|c| c.replace(previous));
    }
}

/// Returns `true` when a recorder is installed on the calling thread.
/// Instrumentation sites use it to skip all argument construction.
#[inline]
pub fn enabled() -> bool {
    CONTEXT.with(|c| c.borrow().recorder.is_some())
}

/// The recorder installed on the calling thread, if any.
fn active() -> Option<Arc<Recorder>> {
    CONTEXT.with(|c| c.borrow().recorder.clone())
}

/// Installs a recorder on the calling thread, or joins the one already
/// installed there, and returns a guard that keeps it installed.
pub fn begin() -> Session {
    begin_with(active().unwrap_or_default())
}

/// Installs `recorder` on the calling thread, keeping the thread's flight
/// frame. A server uses it to record every request into one recorder.
pub fn begin_with(recorder: Arc<Recorder>) -> Session {
    let guard = adopt(Context { recorder: Some(recorder.clone()), ..context() });
    Session { recorder, _context: guard }
}

/// Starts a session only when the `RTOBS` environment variable is `1`.
/// CI uses this to re-run the test suites with collection enabled.
pub fn env_session() -> Option<Session> {
    (std::env::var("RTOBS").as_deref() == Ok("1")).then(begin)
}

/// Guard for one recording scope on one thread. Nested sessions on a
/// thread share its [`Recorder`]; dropping a session restores the
/// context the thread had before it, so the outermost one switches
/// collection off. A session cannot move to another thread:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<rtobs::Session>();
/// ```
pub struct Session {
    recorder: Arc<Recorder>,
    _context: AdoptGuard,
}

impl Session {
    /// The recorder this session writes into.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }
}

/// One finished span, in recorder-relative microseconds.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Pipeline stage name (`assemble`, `trace`, `ciip`, `mumbs`,
    /// `crpd`, `wcrt`, ...).
    pub stage: &'static str,
    /// Free-form detail label (task name, matrix cell, ...).
    pub label: String,
    /// `/`-joined stage names of the enclosing spans on the recording
    /// thread, ending in this span's own stage. Stable across runs.
    pub path: String,
    /// Start offset since the recorder was created, microseconds.
    pub ts_us: u64,
    /// Wall-clock duration, microseconds.
    pub dur_us: u64,
    /// Small dense thread id (registration order, starting at 1).
    pub tid: u64,
}

/// Per-cache-set hit/miss/eviction tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetTally {
    /// Accesses served from the cache.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses that displaced a resident line.
    pub evictions: u64,
}

/// Which term of the Def. 3 bound `min(|m̂a,r|, |m̂b,r|, L)` produced the
/// per-set overlap contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OverlapCap {
    /// The preempted task's useful lines in the set were the minimum.
    Preempted,
    /// The preempting task's footprint in the set was the minimum.
    Preempting,
    /// The associativity `L` saturated the bound.
    Ways,
}

impl OverlapCap {
    /// Short human-readable name of the binding term, for reports.
    pub fn label(self) -> &'static str {
        match self {
            OverlapCap::Preempted => "useful lines",
            OverlapCap::Preempting => "preempting footprint",
            OverlapCap::Ways => "associativity",
        }
    }
}

/// Tally of useful-trace skyline pruning: how many candidate Pareto
/// points the packed-footprint builds saw, and how many survived
/// dominance pruning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkylineTally {
    /// Pareto-maximal points kept across all skyline builds.
    pub kept: u64,
    /// Candidate points discarded as dominated.
    pub pruned: u64,
}

/// Tally of one design-space exploration sweep: how many grid points were
/// evaluated and how large the final Pareto front was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreTally {
    /// Sweep points evaluated across all explore runs.
    pub points: u64,
    /// Size of the most recently recorded Pareto front.
    pub front_size: u64,
}

/// Hit/miss tallies of one content-addressed artifact-cache stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageLookupTally {
    /// Lookups served from the stage cache (no recompute).
    pub hits: u64,
    /// Lookups that had to run the stage.
    pub misses: u64,
}

/// Snapshot of every typed counter in the recorder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Cache-sim tallies keyed by set index.
    pub cache_sets: BTreeMap<u32, SetTally>,
    /// Number of RMB/LMB dataflow analyses recorded.
    pub dataflow_runs: u64,
    /// Total RMB (reaching memory blocks) fixpoint rounds.
    pub rmb_rounds: u64,
    /// Total LMB (live memory blocks) fixpoint rounds.
    pub lmb_rounds: u64,
    /// CRPD matrix cell costs keyed by (approach label, preempted index,
    /// preempting index); values are reloaded cache lines.
    pub crpd_cells: BTreeMap<(String, usize, usize), u64>,
    /// Successive `R_i^k` iterates of the Eq. 7 recurrence keyed by
    /// (context label, task index).
    pub wcrt_iterations: BTreeMap<(String, usize), Vec<u64>>,
    /// Artifact-cache lookups keyed by pipeline stage (`"assemble"`,
    /// `"analyze"`, `"crpd_cell"`, …): stage hits vs. recomputes.
    pub stage_lookups: BTreeMap<&'static str, StageLookupTally>,
    /// Useful-trace skyline pruning effectiveness across all packed
    /// footprint builds (`ciip_pack` stage).
    pub skyline: SkylineTally,
    /// Design-space exploration progress (`explore` stage): points
    /// evaluated plus the latest Pareto front size.
    pub explore: ExploreTally,
}

/// Thread-safe store for spans and counters. Created by [`begin`] (or
/// `default()`, for [`begin_with`]); analysis code only ever appends,
/// readers come after the run.
#[derive(Debug)]
pub struct Recorder {
    start: Instant,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<SpanRecord>,
    threads: BTreeMap<String, u64>,
    counters: Counters,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { start: Instant::now(), inner: Mutex::default() }
    }
}

impl Recorder {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("rtobs recorder poisoned")
    }

    fn tid(inner: &mut Inner) -> u64 {
        let key = format!("{:?}", std::thread::current().id());
        let next = inner.threads.len() as u64 + 1;
        *inner.threads.entry(key).or_insert(next)
    }

    /// All finished spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }

    /// A copy of every typed counter.
    pub fn counters(&self) -> Counters {
        self.lock().counters.clone()
    }

    /// Per-stage `(span count, total duration in µs)`, for bench reports.
    pub fn stage_durations(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let inner = self.lock();
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for span in &inner.spans {
            let entry = out.entry(span.stage).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += span.dur_us;
        }
        out
    }

    /// Renders the whole recorder as Chrome `trace_event` JSON (the
    /// "JSON object format": a `traceEvents` array plus metadata).
    /// Span identifiers (`args.id`) are `path#occurrence` and stable
    /// across runs; timestamps are wall-clock and are not.
    pub fn chrome_trace_json(&self) -> String {
        let inner = self.lock();
        let mut order: Vec<usize> = (0..inner.spans.len()).collect();
        order.sort_by_key(|&i| (inner.spans[i].ts_us, i));
        let mut seen: BTreeMap<&str, u64> = BTreeMap::new();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (n, &i) in order.iter().enumerate() {
            let span = &inner.spans[i];
            let occurrence = seen.entry(span.path.as_str()).or_insert(0);
            let id = format!("{}#{}", span.path, occurrence);
            *occurrence += 1;
            if n > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"rtobs\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"label\":{}}}}}",
                json_string(span.stage),
                span.ts_us,
                span.dur_us,
                span.tid,
                json_string(&id),
                json_string(&span.label),
            );
        }
        out.push_str("],\"rtobsCounters\":");
        write_counters_json(&mut out, &inner.counters);
        out.push('}');
        out
    }

    /// Writes [`Recorder::chrome_trace_json`] to `path`.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.chrome_trace_json())
    }
}

fn write_counters_json(out: &mut String, counters: &Counters) {
    out.push_str("{\"cacheSets\":[");
    for (n, (set, tally)) in counters.cache_sets.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"set\":{set},\"hits\":{},\"misses\":{},\"evictions\":{}}}",
            tally.hits, tally.misses, tally.evictions
        );
    }
    let _ = write!(
        out,
        "],\"dataflow\":{{\"runs\":{},\"rmbRounds\":{},\"lmbRounds\":{}}},\"crpdCells\":[",
        counters.dataflow_runs, counters.rmb_rounds, counters.lmb_rounds
    );
    for (n, ((approach, i, j), lines)) in counters.crpd_cells.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"approach\":{},\"preempted\":{i},\"preempting\":{j},\"lines\":{lines}}}",
            json_string(approach)
        );
    }
    out.push_str("],\"wcrtIterations\":[");
    for (n, ((ctx, task), values)) in counters.wcrt_iterations.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"context\":{},\"task\":{task},\"r\":[", json_string(ctx));
        for (m, v) in values.iter().enumerate() {
            if m > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
        out.push_str("]}");
    }
    out.push_str("],\"stageCache\":[");
    for (n, (stage, tally)) in counters.stage_lookups.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"stage\":{},\"hits\":{},\"misses\":{}}}",
            json_string(stage),
            tally.hits,
            tally.misses
        );
    }
    let _ = write!(
        out,
        "],\"skyline\":{{\"kept\":{},\"pruned\":{}}},\
         \"explore\":{{\"points\":{},\"frontSize\":{}}}}}",
        counters.skyline.kept,
        counters.skyline.pruned,
        counters.explore.points,
        counters.explore.front_size
    );
}

/// Minimal JSON string escaping (control characters, quotes, backslash).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// RAII guard for one span. Inert (no allocation, no lock) when no
/// recorder is installed and no [`flight`] frame is on the thread.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    recorder: Option<Arc<Recorder>>,
    flight: Option<Arc<flight::ActiveFlight>>,
    stage: &'static str,
    label: String,
    path: String,
    ts_us: u64,
    started: Instant,
}

/// Opens an unlabeled span for `stage`. See [`span_labeled`].
pub fn span(stage: &'static str) -> SpanGuard {
    span_labeled(stage, String::new)
}

/// Opens a span for `stage` with a lazily-built detail label. The label
/// closure only runs when a recorder is installed, so call sites may
/// `format!` freely without taxing disabled runs. When only a [`flight`]
/// frame is active (always-on production mode) the span attributes its
/// duration to the frame without building the label or path, so the hot
/// path stays allocation-free.
pub fn span_labeled(stage: &'static str, label: impl FnOnce() -> String) -> SpanGuard {
    let Context { recorder, flight } = context();
    if recorder.is_none() && flight.is_none() {
        return SpanGuard { active: None };
    }
    let want_path = recorder.is_some();
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(stage);
        if want_path {
            stack.join("/")
        } else {
            String::new()
        }
    });
    let started = Instant::now();
    let ts_us = recorder.as_ref().map_or(0, |r| started.duration_since(r.start).as_micros() as u64);
    let label = if want_path { label() } else { String::new() };
    SpanGuard { active: Some(ActiveSpan { recorder, flight, stage, label, path, ts_us, started }) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else { return };
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let dur = span.started.elapsed();
        if let Some(flight) = &span.flight {
            flight.note_span(span.stage, dur);
        }
        let Some(recorder) = &span.recorder else { return };
        let dur_us = dur.as_micros() as u64;
        let mut inner = recorder.lock();
        let tid = Recorder::tid(&mut inner);
        inner.spans.push(SpanRecord {
            stage: span.stage,
            label: span.label,
            path: span.path,
            ts_us: span.ts_us,
            dur_us,
            tid,
        });
    }
}

/// Adds a cache-sim tally for one set (hits/misses/evictions merge-add).
pub fn record_cache_set(set: u32, hits: u64, misses: u64, evictions: u64) {
    let Some(recorder) = active() else { return };
    let mut inner = recorder.lock();
    let tally = inner.counters.cache_sets.entry(set).or_default();
    tally.hits += hits;
    tally.misses += misses;
    tally.evictions += evictions;
}

/// Records the fixpoint round counts of one RMB/LMB dataflow analysis.
pub fn record_dataflow_rounds(rmb_rounds: u64, lmb_rounds: u64) {
    let Some(recorder) = active() else { return };
    let mut inner = recorder.lock();
    inner.counters.dataflow_runs += 1;
    inner.counters.rmb_rounds += rmb_rounds;
    inner.counters.lmb_rounds += lmb_rounds;
}

/// Records the cost (reloaded lines) of one CRPD matrix cell.
pub fn record_crpd_cell(approach: &str, preempted: usize, preempting: usize, lines: u64) {
    let Some(recorder) = active() else { return };
    let mut inner = recorder.lock();
    inner.counters.crpd_cells.insert((approach.to_string(), preempted, preempting), lines);
}

/// Records the successive `R_i^k` iterates of one Eq. 7 fixpoint run.
pub fn record_wcrt_iterations(context: &str, task: usize, values: &[u64]) {
    let Some(recorder) = active() else { return };
    let mut inner = recorder.lock();
    inner.counters.wcrt_iterations.insert((context.to_string(), task), values.to_vec());
}

/// Records the outcome of one useful-trace skyline build: how many
/// Pareto-maximal points were kept and how many candidates were pruned
/// as dominated.
pub fn record_skyline_points(kept: u64, pruned: u64) {
    let Some(recorder) = active() else { return };
    let mut inner = recorder.lock();
    inner.counters.skyline.kept += kept;
    inner.counters.skyline.pruned += pruned;
}

/// Records a batch of evaluated design-space exploration points
/// (accumulates across batches and runs).
pub fn record_explore_points(points: u64) {
    let Some(recorder) = active() else { return };
    let mut inner = recorder.lock();
    inner.counters.explore.points += points;
}

/// Records the current Pareto front size of a design-space exploration
/// (stores the latest value — the front only matters at its final size).
pub fn record_explore_front(size: u64) {
    let Some(recorder) = active() else { return };
    let mut inner = recorder.lock();
    inner.counters.explore.front_size = size;
}

/// Records one lookup against a content-addressed pipeline-stage cache:
/// `hit` means the artifact was reused, `!hit` means the stage re-ran.
/// Also attributed to the thread's [`flight`] frame, if one is active.
pub fn record_stage_lookup(stage: &'static str, hit: bool) {
    let Context { recorder, flight } = context();
    if let Some(frame) = flight {
        frame.note_lookup(stage, hit);
    }
    let Some(recorder) = recorder else { return };
    let mut inner = recorder.lock();
    let tally = inner.counters.stage_lookups.entry(stage).or_default();
    if hit {
        tally.hits += 1;
    } else {
        tally.misses += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_recording_is_scoped() {
        assert!(!enabled());
        record_cache_set(0, 1, 2, 3); // silently dropped
        let session = begin();
        assert!(enabled());
        record_cache_set(7, 10, 4, 1);
        record_cache_set(7, 1, 0, 0);
        let counters = session.recorder().counters();
        assert_eq!(
            counters.cache_sets.get(&7),
            Some(&SetTally { hits: 11, misses: 4, evictions: 1 })
        );
        assert!(!counters.cache_sets.contains_key(&0));
        drop(session);
        assert!(!enabled());
    }

    #[test]
    fn nested_sessions_share_one_recorder() {
        let outer = begin();
        let inner = begin();
        assert!(
            Arc::ptr_eq(outer.recorder(), inner.recorder()),
            "begin joins the thread's recorder"
        );
        record_dataflow_rounds(3, 4);
        drop(inner);
        assert!(enabled(), "outer session keeps recording on");
        let counters = outer.recorder().counters();
        assert_eq!((counters.dataflow_runs, counters.rmb_rounds, counters.lmb_rounds), (1, 3, 4));
        drop(outer);
        assert!(!enabled(), "the outermost session switches collection off");
    }

    #[test]
    fn a_flight_frame_keeps_the_threads_recorder_and_restores_it() {
        let session = begin();
        let flights = flight::FlightRecorder::new(1);
        let scope = flights.begin("wcrt", 0);
        assert!(enabled(), "the frame keeps the session's recorder");
        record_stage_lookup("analyze", true);
        let record = scope.finish(true);
        assert!(enabled(), "finishing the frame leaves the session installed");
        let analyze = flight::stage_index("analyze").unwrap();
        assert_eq!(record.stage_hits[analyze], 1);
        assert_eq!(
            session.recorder().counters().stage_lookups.get("analyze"),
            Some(&StageLookupTally { hits: 1, misses: 0 })
        );
    }

    #[test]
    fn spans_nest_into_stable_paths() {
        let session = begin();
        {
            let _outer = span_labeled("wcrt", || "task0".into());
            let _inner = span("crpd");
        }
        {
            let _again = span("wcrt");
        }
        let spans = session.recorder().spans();
        let paths: Vec<&str> = spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["wcrt/crpd", "wcrt", "wcrt"]);
        let json = session.recorder().chrome_trace_json();
        assert!(json.contains("\"traceEvents\":["), "trace json: {json}");
        assert!(json.contains("\"id\":\"wcrt#0\""), "first occurrence: {json}");
        assert!(json.contains("\"id\":\"wcrt#1\""), "second occurrence: {json}");
        assert!(json.contains("\"id\":\"wcrt/crpd#0\""), "nested id: {json}");
    }

    #[test]
    fn counters_render_into_trace_metadata() {
        let session = begin();
        record_crpd_cell("App. 4", 1, 0, 24);
        record_wcrt_iterations("App. 4", 1, &[100, 250, 250]);
        let json = session.recorder().chrome_trace_json();
        assert!(
            json.contains(
                "{\"approach\":\"App. 4\",\"preempted\":1,\"preempting\":0,\"lines\":24}"
            ),
            "{json}"
        );
        assert!(json.contains("\"r\":[100,250,250]"), "{json}");
    }

    #[test]
    fn stage_lookups_tally_hits_and_misses() {
        record_stage_lookup("analyze", true); // silently dropped: no session
        let session = begin();
        record_stage_lookup("analyze", false);
        record_stage_lookup("analyze", true);
        record_stage_lookup("analyze", true);
        record_stage_lookup("crpd_cell", false);
        let counters = session.recorder().counters();
        assert_eq!(
            counters.stage_lookups.get("analyze"),
            Some(&StageLookupTally { hits: 2, misses: 1 })
        );
        assert_eq!(
            counters.stage_lookups.get("crpd_cell"),
            Some(&StageLookupTally { hits: 0, misses: 1 })
        );
        let json = session.recorder().chrome_trace_json();
        assert!(
            json.contains("\"stageCache\":[{\"stage\":\"analyze\",\"hits\":2,\"misses\":1}"),
            "{json}"
        );
        assert!(json.contains("{\"stage\":\"crpd_cell\",\"hits\":0,\"misses\":1}"), "{json}");
    }

    #[test]
    fn skyline_tallies_accumulate_and_render() {
        record_skyline_points(5, 100); // silently dropped: no session
        let session = begin();
        record_skyline_points(3, 40);
        record_skyline_points(2, 10);
        let counters = session.recorder().counters();
        assert_eq!(counters.skyline, SkylineTally { kept: 5, pruned: 50 });
        let json = session.recorder().chrome_trace_json();
        assert!(json.contains("\"skyline\":{\"kept\":5,\"pruned\":50}"), "{json}");
    }

    #[test]
    fn explore_tallies_accumulate_points_and_track_the_latest_front() {
        record_explore_points(9); // silently dropped: no session
        let session = begin();
        record_explore_points(128);
        record_explore_points(72);
        record_explore_front(11);
        record_explore_front(7);
        let counters = session.recorder().counters();
        assert_eq!(counters.explore, ExploreTally { points: 200, front_size: 7 });
        let json = session.recorder().chrome_trace_json();
        assert!(json.contains("\"explore\":{\"points\":200,\"frontSize\":7}"), "{json}");
    }

    #[test]
    fn span_guard_is_inert_when_disabled() {
        let guard = span_labeled("wcrt", || panic!("label must not be built when disabled"));
        assert!(guard.active.is_none());
    }

    #[test]
    fn spans_and_lookups_attribute_to_flight_frames_without_a_recorder() {
        assert!(!enabled());
        let recorder = flight::FlightRecorder::new(2);
        let scope = recorder.begin("wcrt", 0);
        {
            let _outer =
                span_labeled("wcrt", || panic!("label must not be built without a recorder"));
            let _inner = span("crpd");
        }
        record_stage_lookup("analyze", true);
        let record = scope.finish(true);
        for stage in ["wcrt", "crpd"] {
            let idx = flight::stage_index(stage).unwrap();
            assert!(record.stage_ns[idx] > 0, "{stage} span attributed to the frame");
        }
        let analyze = flight::stage_index("analyze").unwrap();
        assert_eq!(record.stage_hits[analyze], 1);
        SPAN_STACK.with(|stack| assert!(stack.borrow().is_empty()));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}

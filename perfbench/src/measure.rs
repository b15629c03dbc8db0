//! Timing, process-resource and statistics helpers shared by every
//! workload, plus the result line the benchmark prints last.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Ops every timed window runs at least, whatever `--seconds` says: with
/// 100 samples, 10 lie beyond the p90 this benchmark reports.
pub const MIN_OPS: usize = 100;

/// The op after which `peak_rss_mb` is read. The memo stores never
/// evict, so the high-water mark is taken over a fixed op count, not a
/// fixed duration that a faster program would fill with more inserts.
pub const RSS_AT_OP: usize = MIN_OPS;

/// How many times each workload repeats its set-up; `setup_s` is the
/// median, and the last set-up's state is the one that is timed.
pub const SETUPS: usize = 9;

/// Process user+sys CPU time from `/proc/self/stat`, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / clock_ticks_per_second()
}

/// CPU time of the calling thread from `/proc/thread-self/schedstat`, in
/// seconds. Unlike `/proc/self/stat` it counts nanoseconds, not clock
/// ticks, so it can time the short spans between ops.
fn thread_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    let ns: u64 = stat.split_whitespace().next().and_then(|v| v.parse().ok()).expect("run time");
    ns as f64 / 1e9
}

/// `sysconf(_SC_CLK_TCK)` without libc: Linux exposes USER_HZ as 100 on
/// every architecture this benchmark runs on.
fn clock_ticks_per_second() -> f64 {
    100.0
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb as f64 / 1024.0
}

/// Resets `VmHWM` to the current resident size, so that the peak read
/// later covers the timed ops and not the set-up.
fn reset_peak_rss() {
    // "5" resets the peak RSS of the process (see proc(5), clear_refs).
    std::fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
}

/// Exact quantile of sorted samples by the nearest-rank rule:
/// rank `ceil(q * n)`, clamped to `[1, n]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Runs `setup` [`SETUPS`] times and returns the median wall time with
/// the last set-up's state.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (f64, S) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        // Drop the previous state first so set-ups do not stack in memory.
        drop(state.take());
        let started = Instant::now();
        state = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (median(&times), state.expect("SETUPS >= 1"))
}

/// What a timed window measured.
pub struct Window {
    /// Wall time of every op, in seconds, in op order.
    pub op_secs: Vec<f64>,
    /// Ops whose correctness check failed.
    pub failed: usize,
    /// Units of work done (ops, sweep points or requests).
    pub work: u64,
    /// Wall time of the whole window.
    pub wall_secs: f64,
    /// Process CPU time spent during the window.
    pub cpu_secs: f64,
    /// `VmHWM` read right after op [`RSS_AT_OP`].
    pub peak_rss_mb: f64,
}

/// Runs `op` closed-loop until `seconds` have passed and at least
/// [`MIN_OPS`] ops ran. `op(i)` does op `i` and returns the units of work
/// it did and whether its correctness check passed. `after(i)` runs
/// right after op `i` for the caller's own work between ops (preparing
/// the next op, checking a reply, probes). It is outside the op's time,
/// and the CPU time the calling thread spends in it is taken off the
/// window's wall and CPU figures. Other threads that run meanwhile, such
/// as a server finishing a request, stay in both: their work belongs to
/// the program under test.
pub fn timed_window(
    seconds: u64,
    mut op: impl FnMut(usize) -> (u64, bool),
    mut after: impl FnMut(usize),
) -> Window {
    let budget = Duration::from_secs(seconds);
    let mut op_secs = Vec::new();
    let mut failed = 0;
    let mut work = 0;
    let mut peak = None;
    let mut after_cpu_secs = 0.0;
    reset_peak_rss();
    let cpu_start = cpu_seconds();
    let start = Instant::now();
    while op_secs.len() < MIN_OPS || start.elapsed() < budget {
        let i = op_secs.len();
        let began = Instant::now();
        let (units, ok) = op(i);
        op_secs.push(began.elapsed().as_secs_f64());
        work += units;
        failed += usize::from(!ok);
        if i + 1 == RSS_AT_OP {
            peak = Some(peak_rss_mb());
        }
        let cpu = thread_cpu_seconds();
        after(i);
        after_cpu_secs += thread_cpu_seconds() - cpu;
    }
    let wall_secs = start.elapsed().as_secs_f64() - after_cpu_secs;
    let cpu_secs = cpu_seconds() - cpu_start - after_cpu_secs;
    Window {
        op_secs,
        failed,
        work,
        wall_secs,
        cpu_secs,
        peak_rss_mb: peak.expect("the window runs at least RSS_AT_OP ops"),
    }
}

/// Reports every failed check by name and, when there is one, counts
/// every op of the window as failed: a broken reference or a set-up
/// check that failed leaves no op's result trusted.
pub fn fail_all_unless(window: &mut Window, workload: &str, failures: &[String]) {
    for failure in failures {
        eprintln!("{workload}: check failed: {failure}");
    }
    if !failures.is_empty() {
        window.failed = window.op_secs.len();
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// The benchmark's verdict for one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The seven end-to-end metrics of an untraced run; it is correct
    /// when every op passed its check.
    pub fn end_to_end(setup_s: f64, window: &Window) -> Outcome {
        let mut sorted: Vec<f64> = window.op_secs.iter().map(|s| s * 1e3).collect();
        sorted.sort_by(f64::total_cmp);
        let ops = window.op_secs.len();
        Outcome {
            correct: window.failed == 0,
            attempted: ops,
            failed: window.failed,
            metrics: vec![
                Metric::new("setup_s", setup_s, "s"),
                Metric::new("latency_p50_ms", quantile(&sorted, 0.50), "ms"),
                Metric::new("latency_p90_ms", quantile(&sorted, 0.90), "ms"),
                Metric::new("throughput_per_s", window.work as f64 / window.wall_secs, "1/s"),
                Metric::new("cpu_ms_per_op", window.cpu_secs * 1e3 / ops as f64, "ms"),
                Metric::new("success_ratio", (ops - window.failed) as f64 / ops as f64, "ratio"),
                Metric::new("peak_rss_mb", window.peak_rss_mb, "MB"),
            ],
        }
    }

    /// The result line: one JSON object, every value with all its digits.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Deterministic splitmix64 stream: every seeded input of the benchmark
/// comes from one of these, so the same seed gives the same inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

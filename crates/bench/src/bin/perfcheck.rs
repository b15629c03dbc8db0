//! The recorder-overhead gate: the paper and synthetic workloads through
//! the full analysis pipeline, with the `rtflight` recorder on and off.
//!
//! ```text
//! # Full profile (committed as BENCH_profile.json):
//! RTPAR_THREADS=8 cargo run --release -p rtbench --bin perfcheck
//!
//! # CI run: fewer reps, a looser overhead budget for shared runners:
//! RTPAR_THREADS=8 cargo run --release -p rtbench --bin perfcheck -- --reps 3 --max-overhead 0.25
//! ```
//!
//! Each workload runs `reps` times inside a [`rtobs::flight`] frame on
//! the `rtpar` pool `RTPAR_THREADS` sizes. The profile records, per
//! workload:
//!
//! * request p50/p99 in µs — exact, over the sorted per-rep totals;
//! * histogram p50/p99 — the recorder's log₂-bucket readout of the same
//!   requests, showing how far the ops-plane quantiles sit above the
//!   exact ones;
//! * recorder overhead — alternating flight-on/flight-off rounds,
//!   `max(0, median(on)/median(off) - 1)`.
//!
//! Per-stage times are perfbench's job. The one gate runs *after* the
//! JSON is published (a failed run still leaves its evidence): the
//! median measured overhead must stay under `--max-overhead` (default
//! 5%).

use std::process::ExitCode;
use std::time::Instant;

use crpd::CrpdApproach;
use rtbench::{experiment1_spec, experiment2_spec, Experiment, REFERENCE_CMISS};
use rtcache::CacheGeometry;
use rtobs::flight::FlightRecorder;
use rtserver::json::Json;
use rtworkloads::synthetic::{system, SystemParams};

struct Options {
    reps: usize,
    json_out: String,
    max_overhead: f64,
}

fn parse_options(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts =
        Options { reps: 15, json_out: "BENCH_profile.json".to_string(), max_overhead: 0.05 };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--reps" => {
                let n: usize = value("--reps")?.parse().map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".to_string());
                }
                opts.reps = n;
            }
            "--json-out" => opts.json_out = value("--json-out")?,
            "--max-overhead" => {
                let raw = value("--max-overhead")?;
                opts.max_overhead = match raw.parse::<f64>() {
                    Ok(r) if r.is_finite() && r >= 0.0 => r,
                    _ => {
                        return Err(format!(
                            "--max-overhead must be a non-negative number, got `{raw}`"
                        ))
                    }
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

/// Exact quantile over sorted samples: rank `ceil(q * n)` clamped to
/// `[1, n]` — the same convention as the recorder's histogram readout.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted f64 slice (lower-median for even lengths).
fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted[(sorted.len() - 1) / 2]
}

/// Recorder overhead from alternating on/off wall-clock rounds:
/// `max(0, median(on)/median(off) - 1)`.
fn overhead_ratio(on_secs: &[f64], off_secs: &[f64]) -> f64 {
    let off = median(off_secs);
    if off <= 0.0 {
        return 0.0;
    }
    (median(on_secs) / off - 1.0).max(0.0)
}

/// One profiled workload: a name and a closure driving the pipeline.
struct Workload {
    name: &'static str,
    run: Box<dyn Fn()>,
}

fn workloads() -> Vec<Workload> {
    let geometry = CacheGeometry::new(64, 2, 16).expect("valid geometry");
    let exp1 = Experiment::build(&experiment1_spec(), geometry);
    let exp2 = Experiment::build(&experiment2_spec(), geometry);
    let programs = system(&SystemParams::default());
    vec![
        Workload {
            name: "exp1_wcrt",
            run: Box::new(move || {
                let results = exp1.wcrt(CrpdApproach::Combined, REFERENCE_CMISS);
                assert!(results.iter().all(|r| r.cycles > 0), "exp1 WCRTs are positive");
            }),
        },
        Workload {
            name: "exp2_wcrt",
            run: Box::new(move || {
                let results = exp2.wcrt(CrpdApproach::Combined, REFERENCE_CMISS);
                assert!(results.iter().all(|r| r.cycles > 0), "exp2 WCRTs are positive");
            }),
        },
        Workload {
            name: "synthetic_pipeline",
            run: Box::new(move || {
                use crpd::{AnalyzedTask, CrpdMatrix, TaskParams, WcrtParams};
                use rtwcet::TimingModel;
                let tasks: Vec<AnalyzedTask> = programs
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        AnalyzedTask::analyze(
                            p,
                            TaskParams { period: 200_000 << i, priority: 2 + i as u32 },
                            geometry,
                            TimingModel::with_miss_penalty(REFERENCE_CMISS),
                        )
                        .expect("synthetic tasks analyze cleanly")
                    })
                    .collect();
                let matrix = CrpdMatrix::compute(CrpdApproach::Combined, &tasks);
                let params = WcrtParams {
                    miss_penalty: REFERENCE_CMISS,
                    ctx_switch: 120,
                    ..WcrtParams::default()
                };
                let results = crpd::analyze_all(&tasks, &matrix, &params);
                assert_eq!(results.len(), tasks.len());
            }),
        },
    ]
}

/// Profiles one workload: `reps` flight-framed runs for the latency
/// profile, then `reps` alternating on/off rounds for overhead.
fn profile_workload(w: &Workload, recorder: &FlightRecorder, reps: usize) -> (Json, f64) {
    // Warmup outside any frame: first-touch allocation and code paging
    // belong to neither side of the overhead comparison.
    (w.run)();
    let mut totals_us: Vec<u64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let scope = recorder.begin(w.name, 0);
        (w.run)();
        totals_us.push(scope.finish(true).total_us);
    }
    totals_us.sort_unstable();

    // Alternating on/off rounds decorrelate thermal / frequency drift.
    let mut on_secs = Vec::with_capacity(reps);
    let mut off_secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        let scope = recorder.begin(w.name, 0);
        (w.run)();
        scope.finish(true);
        on_secs.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        (w.run)();
        off_secs.push(started.elapsed().as_secs_f64());
    }
    let overhead = overhead_ratio(&on_secs, &off_secs);

    let profile = Json::obj([
        (
            "request_us",
            Json::obj([
                ("p50", Json::from(percentile(&totals_us, 0.50))),
                ("p99", Json::from(percentile(&totals_us, 0.99))),
                ("max", Json::from(*totals_us.last().expect("reps >= 1"))),
            ]),
        ),
        ("overhead", Json::Num(overhead)),
    ]);
    (profile, overhead)
}

/// The recorder's own histogram readout per endpoint, to cross-check
/// against the exact percentiles.
fn histogram_json(recorder: &FlightRecorder) -> Json {
    Json::Obj(
        recorder
            .endpoints()
            .into_iter()
            .map(|e| {
                let entry = Json::obj([
                    ("count", Json::from(e.count)),
                    ("p50_us", Json::from(e.p50_us)),
                    ("p99_us", Json::from(e.p99_us)),
                ]);
                (e.endpoint.to_string(), entry)
            })
            .collect(),
    )
}

fn run() -> Result<(), String> {
    let opts = parse_options(std::env::args().skip(1))?;
    let reps = opts.reps;
    let threads = rtpar::current_threads();

    let recorder = FlightRecorder::new(1024);
    let mut workload_profiles = std::collections::BTreeMap::new();
    let mut overheads = Vec::new();
    println!("perfcheck: {reps} reps/workload, {threads} threads");
    for w in workloads() {
        let started = Instant::now();
        let (profile, overhead) = profile_workload(&w, &recorder, reps);
        println!(
            "  {}: p50 {}us, recorder overhead {:.2}% ({:.1}s)",
            w.name,
            profile
                .get("request_us")
                .and_then(|r| r.get("p50"))
                .and_then(Json::as_u64)
                .unwrap_or(0),
            overhead * 100.0,
            started.elapsed().as_secs_f64()
        );
        overheads.push(overhead);
        workload_profiles.insert(w.name.to_string(), profile);
    }
    let overhead_median = median(&overheads);
    let overhead_max = overheads.iter().cloned().fold(0.0f64, f64::max);

    let report = Json::obj([
        ("schema", Json::from("perfcheck-v2")),
        ("reps", Json::from(reps as u64)),
        ("threads", Json::from(threads as u64)),
        ("workloads", Json::Obj(workload_profiles)),
        (
            "recorder_overhead",
            Json::obj([
                ("median", Json::Num(overhead_median)),
                ("max", Json::Num(overhead_max)),
                ("budget", Json::Num(opts.max_overhead)),
            ]),
        ),
        ("histograms_us", histogram_json(&recorder)),
    ]);
    std::fs::write(&opts.json_out, report.encode() + "\n")
        .map_err(|e| format!("{}: {e}", opts.json_out))?;
    println!("wrote {}", opts.json_out);

    // The gate runs after publishing, so a failed run still leaves evidence.
    if overhead_median > opts.max_overhead {
        return Err(format!(
            "recorder overhead {:.2}% exceeds budget {:.2}%",
            overhead_median * 100.0,
            opts.max_overhead * 100.0
        ));
    }
    println!(
        "gate: recorder overhead {:.2}% within {:.2}% budget",
        overhead_median * 100.0,
        opts.max_overhead * 100.0
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfcheck: {message}");
            eprintln!(
                "usage: perfcheck [--reps N] [--json-out PATH] [--max-overhead R] \
                 (pool size from RTPAR_THREADS)"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_the_histogram_rank_convention() {
        let sorted = [10, 20, 30, 40];
        assert_eq!(percentile(&sorted, 0.50), 20);
        assert_eq!(percentile(&sorted, 0.99), 40);
        assert_eq!(percentile(&sorted, 0.0), 10, "q=0 clamps to the first sample");
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    fn overhead_clamps_at_zero_and_measures_slowdowns() {
        assert_eq!(overhead_ratio(&[1.0, 1.0], &[1.1, 1.1]), 0.0, "faster-with-recorder clamps");
        let measured = overhead_ratio(&[1.05, 1.04, 1.06], &[1.0, 1.0, 1.0]);
        assert!((measured - 0.05).abs() < 1e-9, "median-based ratio, got {measured}");
        assert_eq!(overhead_ratio(&[1.0], &[0.0]), 0.0, "degenerate off-time is not a division");
    }

    #[test]
    fn parse_options_covers_flags_and_rejects_nonsense() {
        let opts = parse_options(std::iter::empty()).unwrap();
        assert_eq!(opts.reps, 15);
        assert_eq!(opts.max_overhead, 0.05);
        let opts =
            parse_options(["--reps", "7", "--max-overhead", "0.1"].map(String::from).into_iter())
                .unwrap();
        assert_eq!(opts.reps, 7);
        assert_eq!(opts.max_overhead, 0.1);
        assert!(parse_options(["--reps", "0"].map(String::from).into_iter()).is_err());
        assert!(parse_options(["--max-overhead", "soon"].map(String::from).into_iter()).is_err());
        assert!(parse_options(["--wat"].map(String::from).into_iter()).is_err());
    }

    /// The hot-path promise: a begin/finish cycle with no work inside
    /// costs under 5% of a 2 ms request (100 µs). The cycles are timed
    /// directly, so scheduler jitter around a sleeping workload cannot
    /// decide the outcome.
    #[test]
    fn recorder_frame_overhead_is_small_against_a_millisecond_workload() {
        const CYCLES: u32 = 1_000;
        let recorder = FlightRecorder::new(64);
        let started = Instant::now();
        for _ in 0..CYCLES {
            recorder.begin("bench", 0).finish(true);
        }
        let mean = started.elapsed() / CYCLES;
        let budget = std::time::Duration::from_millis(2) / 20;
        assert!(mean < budget, "a begin/finish cycle costs {mean:?}, budget {budget:?}");
        assert_eq!(recorder.records_total(), u64::from(CYCLES));
    }
}

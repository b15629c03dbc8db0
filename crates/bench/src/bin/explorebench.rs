//! Benchmark for the `rtexplore` design-space sweep engine.
//!
//! ```text
//! # Full grid (1152 points):
//! cargo run --release -p rtbench --bin explorebench
//!
//! # CI smoke grid (256 points) with the stage-hit-rate gate:
//! cargo run --release -p rtbench --bin explorebench -- --small --min-stage-hit-rate 0.9
//! ```
//!
//! Runs one sweep over a fixed two-task system and a declared grid,
//! measuring what the sweep engine promises:
//!
//! * **Dedup**: the `rtobs` span counts prove assemble ran once per task
//!   and analyze once per unique `(task, geometry, model)` key — and that
//!   a warm re-run of the whole grid re-runs none of them.
//! * **Hit rates**: the assemble/analyze stage-lookup hit rates over the
//!   run; `--min-stage-hit-rate R` turns them into a gate (checked after
//!   the JSON is published, so a failed run still leaves its evidence).
//! * **Determinism**: the full rendered report (points + Pareto front) is
//!   byte-identical under `rtpar` pools of 1, 2 and 8 threads.
//!
//! The summary — points/sec, stage hit rates, front size, invariance
//! verdict and per-stage span durations — lands in `BENCH_explore.json`
//! (`--json-out PATH` to relocate it).

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use rtcli::store::ArtifactStore;
use rtcli::SystemSpec;
use rtexplore::{run_sweep, Grid, Plan};
use rtserver::json::Json;

const SPEC: &str = "cache 64 2 16\ncmiss 20\nccs 50\ntask hi hi.s 5000 1\ntask lo lo.s 50000 2\n";
const TASK_HI: &str = ".data 0x100000\nbuf: .word 1,2,3,4\n.text 0x1000\nstart: li r1, buf\nli r3, 4\nloop: ld r2, 0(r1)\naddi r1, r1, 4\naddi r3, r3, -1\nbne r3, r0, loop\n.bound loop, 4\nhalt\n";
const TASK_LO: &str = ".data 0x100400\nbuf: .word 7,8\n.text 0x2000\nstart: li r1, buf\nld r2, 0(r1)\nld r4, 4(r1)\nadd r2, r2, r4\nhalt\n";

/// The full grid: 4 x 3 x 1 x 2 geometry/model axes and 2 x 3 x 2 x 4
/// scheduling/approach axes = 1152 points over 24 unique
/// `(geometry, model)` keys per task.
const FULL_GRID: &str = "sets 32 64 128 256\nways 1 2 4\nline 16\ncmiss 20 40\nccs 50 150\n\
                         period-scale 0.5 1 2\npriority-rot 0 1\napproach all\n";

/// The CI smoke grid: 256 points over 16 unique keys per task — enough
/// lookups per key that the 0.9 stage-hit-rate gate has headroom.
const SMALL_GRID: &str = "sets 32 64\nways 1 2\nline 16 32\ncmiss 20 40\n\
                          period-scale 1 2\npriority-rot 0 1\napproach all\n";

struct Options {
    small: bool,
    json_out: String,
    min_stage_hit_rate: Option<f64>,
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options {
        small: false,
        json_out: "BENCH_explore.json".to_string(),
        min_stage_hit_rate: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--small" => opts.small = true,
            "--json-out" => opts.json_out = value("--json-out")?,
            "--min-stage-hit-rate" => {
                let rate: f64 = value("--min-stage-hit-rate")?
                    .parse()
                    .map_err(|e| format!("--min-stage-hit-rate: {e}"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err("--min-stage-hit-rate must be in [0, 1]".to_string());
                }
                opts.min_stage_hit_rate = Some(rate);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn sources() -> Vec<(String, String)> {
    vec![("hi".to_string(), TASK_HI.to_string()), ("lo".to_string(), TASK_LO.to_string())]
}

/// The recorder's per-stage span totals as a JSON object.
fn stage_durations_json(session: &rtobs::Session) -> Json {
    Json::Obj(
        session
            .recorder()
            .stage_durations()
            .into_iter()
            .map(|(stage, (count, total_us))| {
                let entry =
                    Json::obj([("count", Json::from(count)), ("total_us", Json::from(total_us))]);
                (stage.to_string(), entry)
            })
            .collect(),
    )
}

fn write_bench_json(path: &str, report: Json) -> Result<(), String> {
    let mut text = report.encode();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn run() -> Result<(), String> {
    let opts = parse_options()?;
    let session = rtobs::begin();
    let spec = SystemSpec::parse(SPEC, Path::new("")).map_err(|e| e.to_string())?;
    let grid_text = if opts.small { SMALL_GRID } else { FULL_GRID };
    let grid = Grid::parse(grid_text).map_err(|e| e.to_string())?;
    let plan = Plan::new(&spec, &grid).map_err(|e| e.to_string())?;
    let tasks = plan.task_count() as u64;
    let unique_keys =
        (grid.sets.len() * grid.ways.len() * grid.line.len() * grid.cmiss.len()) as u64;
    println!(
        "explorebench: {} grid, {} points ({}), {unique_keys} unique (geometry, model) keys/task",
        if opts.small { "small" } else { "full" },
        plan.len(),
        plan.describe_axes()
    );

    // Timed cold sweep on the default pool against one shared store.
    let store = ArtifactStore::default();
    let task_sources = sources();
    let provider = store.sweep_provider(&task_sources);
    let started = Instant::now();
    let mut heartbeat = rtobs::flight::Heartbeat::new(std::time::Duration::from_secs(5));
    let mut done = 0u64;
    let total = plan.len() as u64;
    let outcome = run_sweep(&plan, &provider, store.cells(), |batch, _front| {
        done += batch.len() as u64;
        if let Some(line) = heartbeat.poll(done, Some(total)) {
            eprintln!("explorebench: {line}");
        }
    })
    .map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    let points_per_sec = outcome.points as f64 / elapsed.as_secs_f64();
    println!(
        "cold sweep: {} points in {elapsed:.2?} ({points_per_sec:.0} points/s), \
         Pareto front of {}",
        outcome.points,
        outcome.front.len()
    );

    // Dedup proof, part 1: one assemble span per task, one analyze span
    // per unique (task, geometry, model) key — never per point.
    let cold_spans = session.recorder().stage_durations();
    let span_count = |spans: &std::collections::BTreeMap<&'static str, (u64, u64)>, stage: &str| {
        spans.get(stage).map(|(count, _)| *count).unwrap_or(0)
    };
    let analyze_spans = span_count(&cold_spans, "analyze");
    let assemble_spans = span_count(&cold_spans, "assemble");
    if analyze_spans != unique_keys * tasks {
        return Err(format!(
            "expected {} analyze spans (one per unique key), saw {analyze_spans}",
            unique_keys * tasks
        ));
    }
    if assemble_spans != tasks {
        return Err(format!(
            "expected {tasks} assemble spans (one per task), saw {assemble_spans}"
        ));
    }
    println!(
        "dedup: {analyze_spans} analyze spans for {} points ({assemble_spans} assembles)",
        outcome.points
    );

    // Dedup proof, part 2: re-sweeping the whole grid against the warm
    // store runs zero additional artifact-pipeline spans.
    let warm_outcome =
        run_sweep(&plan, &provider, store.cells(), |_, _| {}).map_err(|e| e.to_string())?;
    let warm_spans = session.recorder().stage_durations();
    for stage in ["assemble", "analyze", "trace", "ciip", "wcet"] {
        let (cold, warm) = (span_count(&cold_spans, stage), span_count(&warm_spans, stage));
        if warm != cold {
            return Err(format!("warm re-sweep re-ran stage {stage}: {cold} -> {warm} spans"));
        }
    }
    if warm_outcome.front.members().len() != outcome.front.members().len() {
        return Err("warm re-sweep changed the front".to_string());
    }
    println!("dedup: warm re-sweep of all {} points re-ran zero pipeline spans", outcome.points);

    // Stage hit rates over everything this process looked up.
    let counters = session.recorder().counters();
    let mut hit_rates = std::collections::BTreeMap::new();
    let mut gate_failures = Vec::new();
    for stage in ["assemble", "analyze"] {
        let tally = counters.stage_lookups.get(stage).copied().unwrap_or_default();
        let lookups = tally.hits + tally.misses;
        let rate = if lookups == 0 { 1.0 } else { tally.hits as f64 / lookups as f64 };
        println!(
            "stage {stage:>9}: {} hits / {} misses (hit rate {rate:.3})",
            tally.hits, tally.misses
        );
        if let Some(min) = opts.min_stage_hit_rate {
            if rate < min {
                gate_failures
                    .push(format!("stage {stage}: hit rate {rate:.3} < required {min:.3}"));
            }
        }
        hit_rates.insert(
            stage.to_string(),
            Json::obj([
                ("hits", Json::from(tally.hits)),
                ("misses", Json::from(tally.misses)),
                ("hit_rate", Json::Num(rate)),
            ]),
        );
    }

    // Determinism: the full rendered report is byte-identical at 1, 2
    // and 8 threads (fresh store per run; the text includes every
    // per-point row, the front and its explanations).
    let mut reference: Option<String> = None;
    for threads in [1usize, 2, 8] {
        let pool = rtpar::Pool::new(threads);
        let report = pool
            .install(|| rtexplore::cmd_explore_with(&spec, sources(), &grid))
            .map_err(|e| e.to_string())?;
        match &reference {
            None => reference = Some(report),
            Some(baseline) => {
                if report != *baseline {
                    return Err(format!("report at {threads} threads differs from 1 thread"));
                }
            }
        }
    }
    println!("invariance: report byte-identical at 1/2/8 threads");

    write_bench_json(
        &opts.json_out,
        Json::obj([
            ("mode", Json::from(if opts.small { "small" } else { "full" })),
            ("points", Json::from(outcome.points as u64)),
            ("elapsed_secs", Json::Num(elapsed.as_secs_f64())),
            ("points_per_sec", Json::Num(points_per_sec)),
            ("front_size", Json::from(outcome.front.len() as u64)),
            ("unique_analysis_keys_per_task", Json::from(unique_keys)),
            ("analyze_spans", Json::from(analyze_spans)),
            ("assemble_spans", Json::from(assemble_spans)),
            ("stage_hit_rates", Json::Obj(hit_rates)),
            (
                "threads_invariance",
                Json::Arr(vec![Json::from(1u64), Json::from(2u64), Json::from(8u64)]),
            ),
            ("stages", stage_durations_json(&session)),
        ]),
    )?;
    // Gate after publishing, so a failed run still leaves its evidence.
    if gate_failures.is_empty() {
        Ok(())
    } else {
        Err(gate_failures.join("; "))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("explorebench: {message}");
            eprintln!("usage: explorebench [--small] [--json-out PATH] [--min-stage-hit-rate R]");
            ExitCode::from(2)
        }
    }
}

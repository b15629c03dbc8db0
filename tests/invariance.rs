//! Thread-count invariance: every analysis artifact and rendered report
//! must be byte-identical whether the `rtpar` pool runs 1, 2 or 8
//! threads. This is the hard determinism contract of the parallel
//! runtime — reductions merge in index order, so the pool size may only
//! change wall-clock time, never a single output byte.
//! Sessions are per thread, so each test opens `rtobs::env_session()`
//! itself to run under `RTOBS=1` with a recorder installed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Barrier;

use preempt_wcrt::analysis::{
    analyze_all, AnalyzedTask, CrpdApproach, CrpdMatrix, TaskParams, WcrtParams,
};
use preempt_wcrt::cache::CacheGeometry;
use preempt_wcrt::wcet::TimingModel;
use preempt_wcrt::workloads::synthetic::{system, SystemParams};

const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// Builds a three-task synthetic system and renders *everything* the
/// analysis produces — task artifacts, all four CRPD matrices and the
/// WCRT fixpoints — into one string, so a single byte comparison covers
/// every parallelized stage (`AnalyzedTask::analyze`,
/// `CrpdMatrix::compute`, `analyze_all`).
fn analysis_report() -> String {
    let geometry = CacheGeometry::new(64, 2, 16).unwrap();
    let model = TimingModel::default();
    let params = SystemParams {
        name_prefix: "inv".to_string(),
        seed: 0xBEEF,
        code_stride: 0x0800,
        data_stride: 0x0140,
        data_words_base: 128,
        data_words_step: 32,
        outer_base: 2,
        inner_iters: 32,
        stride_words: 2,
        ..SystemParams::default()
    };
    let tasks: Vec<AnalyzedTask> = system(&params)
        .iter()
        .enumerate()
        .map(|(i, program)| {
            AnalyzedTask::analyze(
                program,
                TaskParams { period: 200_000 << i, priority: 2 + i as u32 },
                geometry,
                model,
            )
            .expect("synthetic tasks analyze cleanly")
        })
        .collect();
    let params = WcrtParams { miss_penalty: 20, ctx_switch: 120, max_iterations: 10_000 };
    let mut out = String::new();
    for t in &tasks {
        let _ = writeln!(out, "{t} mumbs={} useful={}", t.mumbs(), t.useful_line_bound());
    }
    for approach in CrpdApproach::ALL {
        let matrix = CrpdMatrix::compute(approach, &tasks);
        for i in 0..tasks.len() {
            for j in 0..tasks.len() {
                let _ = write!(out, "{approach}[{i}][{j}]={} ", matrix.reload(i, j));
            }
        }
        let _ = writeln!(out);
        for r in analyze_all(&tasks, &matrix, &params) {
            let _ = writeln!(out, "{approach}: {} {} {}", r.cycles, r.schedulable, r.iterations);
        }
    }
    out
}

/// The full `trisc wcrt` pipeline (spec file -> assembled programs ->
/// analysis -> rendered table) under one explicit pool.
fn cli_report(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("rt-invariance-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(
        dir.join("hi.s"),
        ".data 0x100000\nbuf: .word 1,2,3,4\n.text 0x1000\nstart: li r1, buf\nli r3, 4\n\
         loop: ld r2, 0(r1)\naddi r1, r1, 4\naddi r3, r3, -1\nbne r3, r0, loop\n\
         .bound loop, 4\nhalt\n",
    )
    .expect("write hi.s");
    std::fs::write(
        dir.join("lo.s"),
        ".data 0x100400\nbuf: .word 7,8\n.text 0x2000\nstart: li r1, buf\nld r2, 0(r1)\n\
         ld r4, 4(r1)\nadd r2, r2, r4\nhalt\n",
    )
    .expect("write lo.s");
    let spec_path = dir.join("system.spec");
    std::fs::write(
        &spec_path,
        "cache 64 2 16\ncmiss 20\nccs 50\ntask hi hi.s 5000 1\ntask lo lo.s 50000 2\n",
    )
    .expect("write spec");
    let spec = rtcli::SystemSpec::load(&spec_path).expect("spec parses");
    let sources = spec.read_sources().expect("sources read");
    let store = rtcli::ArtifactStore::default();
    let output = rtcli::run_wcrt(&store, &spec, &sources, false).expect("wcrt succeeds");
    std::fs::remove_dir_all(&dir).ok();
    output
}

#[test]
fn analysis_artifacts_are_byte_identical_at_any_pool_size() {
    let _ambient = rtobs::env_session();
    let reference = rtpar::Pool::new(1).install(analysis_report);
    assert!(reference.contains("App. 4"), "report looks wrong: {reference}");
    for threads in POOL_SIZES {
        let pool = rtpar::Pool::new(threads);
        assert_eq!(pool.background_workers(), threads - 1);
        let report = pool.install(analysis_report);
        assert_eq!(report, reference, "pool of {threads} threads changed the analysis output");
    }
}

#[test]
fn cli_wcrt_report_is_byte_identical_at_any_pool_size() {
    let _ambient = rtobs::env_session();
    let reference = rtpar::Pool::new(1).install(|| cli_report("ref"));
    assert!(reference.contains("WCRT"), "report looks wrong: {reference}");
    for threads in POOL_SIZES {
        let report = rtpar::Pool::new(threads).install(|| cli_report(&threads.to_string()));
        assert_eq!(report, reference, "pool of {threads} threads changed the rendered report");
    }
}

/// One explore sweep (plan -> batched parallel evaluation -> streamed
/// rows, Pareto front and explanations) through a fresh artifact store
/// under its own recorder: the rendered report, the store's `crpd_cell`
/// (misses, entries), and the number of recorded `crpd` spans.
fn explore_run() -> (String, (u64, u64), u64) {
    let spec = rtcli::SystemSpec::parse(
        "cache 64 2 16\ncmiss 20\nccs 50\ntask hi hi.s 5000 1\ntask lo lo.s 50000 2\n",
        std::path::Path::new(""),
    )
    .expect("spec parses");
    let sources = [
        ".data 0x100000\nbuf: .word 1,2,3,4\n.text 0x1000\nstart: li r1, buf\nli r3, 4\n\
         loop: ld r2, 0(r1)\naddi r1, r1, 4\naddi r3, r3, -1\nbne r3, r0, loop\n\
         .bound loop, 4\nhalt\n"
            .to_string(),
        ".data 0x100400\nbuf: .word 7,8\n.text 0x2000\nstart: li r1, buf\nld r2, 0(r1)\n\
         ld r4, 4(r1)\nadd r2, r2, r4\nhalt\n"
            .to_string(),
    ];
    let grid = rtexplore::Grid::parse(
        "sets 32 64\nways 1 2\ncmiss 20 40\nperiod-scale 0.5 1\npriority-rot 0 1\napproach all\n",
    )
    .expect("grid parses");
    let store = rtcli::ArtifactStore::default();
    let session = rtobs::begin_with(Default::default());
    let mut rows = String::new();
    let explored = rtexplore::explore(&store, &spec, &sources, &grid, |batch, _front| {
        for point in batch {
            let _ = writeln!(rows, "{}", rtexplore::render_point(point));
        }
    })
    .expect("sweep succeeds");
    let crpd_spans = session.recorder().stage_durations().get("crpd").map_or(0, |&(n, _)| n);
    drop(session);
    let cells = store.cells().stats();
    let report =
        format!("explore: {} points\n{rows}\n{}", explored.plan.len(), explored.front_report);
    (report, (cells.misses, cells.entries), crpd_spans)
}

/// The sweep's entire output — every per-point row, the
/// Pareto-front membership and ordering, and the binding-constraint
/// explanations — is byte-identical at 1, 2 and 8 threads. The work is
/// too: the single-flight cell store computes each distinct CRPD cell
/// exactly once, so the `crpd` span count does not depend on the pool
/// size or the run.
#[test]
fn explore_report_is_byte_identical_at_any_pool_size() {
    let _ambient = rtobs::env_session();
    let (reference, _, reference_spans) = rtpar::Pool::new(1).install(explore_run);
    assert!(reference.contains("explore: 128 points"), "report looks wrong: {reference}");
    assert!(reference.contains("Pareto front ("), "report looks wrong: {reference}");
    // Every pool size once, then two more runs on one 8-thread pool.
    let eight = rtpar::Pool::new(8);
    let runs = POOL_SIZES
        .iter()
        .map(|&threads| (threads, rtpar::Pool::new(threads).install(explore_run)))
        .chain((0..2).map(|_| (8, eight.install(explore_run))));
    for (threads, (report, (misses, entries), spans)) in runs {
        assert_eq!(report, reference, "pool of {threads} threads changed the explore report");
        assert_eq!(misses, entries, "pool of {threads} threads computed a CRPD cell twice");
        assert_eq!(spans, reference_spans, "pool of {threads} threads changed the crpd span count");
    }
}

/// Repeating the *same* analysis on the *same* multi-threaded pool is
/// also stable run-to-run (no scheduling-order leak into the artifacts).
#[test]
fn repeated_runs_on_one_pool_are_stable() {
    let _ambient = rtobs::env_session();
    let pool = rtpar::Pool::new(8);
    let first = pool.install(analysis_report);
    for _ in 0..3 {
        assert_eq!(pool.install(analysis_report), first);
    }
}

/// The rtobs determinism contract: an installed recorder observes the
/// pipeline but never perturbs it, so every report is byte-identical
/// with tracing on and off, at every pool size. (Under `RTOBS=1` the
/// "off" runs record into the ambient session too, and the explicit
/// session below joins it.)
#[test]
fn reports_are_byte_identical_with_tracing_on_and_off() {
    let _ambient = rtobs::env_session();
    let plain_analysis = rtpar::Pool::new(1).install(analysis_report);
    let plain_cli = rtpar::Pool::new(1).install(|| cli_report("obs-ref"));
    let session = rtobs::begin();
    for threads in POOL_SIZES {
        let pool = rtpar::Pool::new(threads);
        assert_eq!(
            pool.install(analysis_report),
            plain_analysis,
            "tracing at {threads} threads changed the analysis output"
        );
        assert_eq!(
            pool.install(|| cli_report(&format!("obs-{threads}"))),
            plain_cli,
            "tracing at {threads} threads changed the rendered report"
        );
    }
    // The recorder actually saw the runs: every pipeline stage left spans.
    let stages = session.recorder().stage_durations();
    for stage in ["assemble", "trace", "ciip", "mumbs", "crpd", "wcrt"] {
        assert!(stages.contains_key(stage), "no spans recorded for stage `{stage}`");
    }
}

/// The rtflight determinism contract: an installed flight frame observes
/// the pipeline (span durations, stage-cache lookups) but never perturbs
/// it — reports are byte-identical with the flight recorder on and off,
/// at 1 and 8 threads — while the frame demonstrably attributed the work
/// it watched, including work stolen by pool helper threads.
#[test]
fn reports_are_byte_identical_with_the_flight_recorder_on_and_off() {
    let _ambient = rtobs::env_session();
    let plain_analysis = rtpar::Pool::new(1).install(analysis_report);
    let plain_cli = rtpar::Pool::new(1).install(|| cli_report("flight-ref"));
    let recorder = rtobs::flight::FlightRecorder::new(8);
    for threads in [1usize, 8] {
        let pool = rtpar::Pool::new(threads);
        let scope = recorder.begin("invariance", 0);
        let (analysis, cli) =
            pool.install(|| (analysis_report(), cli_report(&format!("flight-{threads}"))));
        let record = scope.finish(true);
        assert_eq!(
            analysis, plain_analysis,
            "a flight frame at {threads} threads changed the analysis output"
        );
        assert_eq!(
            cli, plain_cli,
            "a flight frame at {threads} threads changed the rendered report"
        );
        // The frame saw the pipeline: every major stage has attributed
        // wall time, at any pool size (adoption carries the frame onto
        // helper threads).
        for stage in ["assemble", "trace", "ciip", "mumbs", "crpd", "wcrt"] {
            let idx = rtobs::flight::stage_index(stage).expect("registered stage");
            assert!(
                record.stage_ns[idx] > 0,
                "no wall time attributed to `{stage}` at {threads} threads"
            );
        }
    }
    assert_eq!(recorder.records_total(), 2);
}

/// What one session saw: span counts per stage (durations vary, counts
/// do not) and every typed counter.
fn observed_run(pool: &rtpar::Pool) -> (String, BTreeMap<&'static str, u64>, rtobs::Counters) {
    let session = rtobs::begin();
    let report = pool.install(analysis_report);
    let spans = session.recorder().stage_durations().into_iter().map(|(s, (n, _))| (s, n));
    (report, spans.collect(), session.recorder().counters())
}

/// Sessions are scoped to the thread that opens them and the pool
/// helpers working for it: two sessions running the pipeline at once on
/// one shared 8-thread pool each record exactly what a solo run records,
/// and a thread with no session sees recording off, helpers included.
/// (This test opens its own sessions, so no ambient one.)
#[test]
fn concurrent_sessions_record_exactly_what_a_solo_run_records() {
    let pool = rtpar::Pool::new(8);
    let solo = observed_run(&pool);
    assert!(solo.1.get("wcrt").is_some_and(|&n| n > 0) && !solo.2.crpd_cells.is_empty());
    let start = Barrier::new(3);
    let traced = || {
        start.wait();
        observed_run(&pool)
    };
    let (a, b, (report, seen)) = std::thread::scope(|scope| {
        let (a, b) = (scope.spawn(traced), scope.spawn(traced));
        let bare = scope.spawn(|| {
            start.wait();
            let mut seen = pool.install(|| rtpar::par_map_range(64, |_| rtobs::enabled()));
            seen.push(rtobs::enabled());
            (pool.install(analysis_report), seen)
        });
        (a.join().unwrap(), b.join().unwrap(), bare.join().unwrap())
    });
    for (name, run) in [("first", a), ("second", b)] {
        assert_eq!(run.0, solo.0, "{name} session changed the analysis output");
        assert_eq!(run.1, solo.1, "{name} session's span counts differ from a solo run's");
        assert_eq!(run.2, solo.2, "{name} session's counters differ from a solo run's");
    }
    assert_eq!(report, solo.0);
    assert!(seen.iter().all(|&e| !e), "a thread with no session must see recording off");
}

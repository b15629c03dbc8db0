//! `rtexplore`: design-space exploration sweeps over the artifact DAG.
//!
//! A sweep takes one base system spec plus a [`Grid`] declaring swept
//! axes — cache sets × ways × line size, miss penalty, context-switch
//! cost, per-task period scaling, priority rotation, and CRPD approach —
//! and evaluates the full cross product:
//!
//! * **Deduplicated analysis.** Points are batched and each batch's
//!   unique `(task, geometry, model)` combinations are bound once
//!   through [`ArtifactStore::sweep_provider`] (a fresh store per
//!   `trisc explore` run, the shared store in the server — both through
//!   [`explore`]); every point then rebinds
//!   the shared [`crpd::AnalyzedProgram`] artifacts in O(1) via
//!   [`crpd::AnalyzedTask::bind_all`]. A 1000-point sweep re-runs
//!   assemble/trace/CIIP/WCET once per unique key, not per point.
//! * **Deterministic streaming.** Points fan out over the current
//!   [`rtpar`] pool but reduce in index order, so the per-point rows,
//!   the running [`ParetoFront`] and the final report are byte-identical
//!   at any thread count.
//! * **A streamed Pareto front** over (schedulable, total cache bytes,
//!   utilization, min WCRT slack), with the binding-constraint
//!   explanation of each front point rendered through the same
//!   machinery as `trisc wcrt --explain`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::cast_possible_truncation)]

mod engine;
mod front;
mod grid;
mod plan;

use std::fmt::Write as _;
use std::path::Path;

use rtcli::store::ArtifactStore;
use rtcli::{CliError, SystemSpec};

pub use engine::{
    evaluate_point, explain_front, render_point, run_sweep, AnalyzeProvider, SweepOutcome,
    BATCH_POINTS,
};
pub use front::{dominates, ParetoFront, PointOutcome};
pub use grid::Grid;
pub use plan::{Plan, PointConfig, MAX_POINTS};

/// A finished sweep: its plan, tallies and explained front.
#[derive(Debug)]
pub struct Explored {
    /// The swept plan (for the report header).
    pub plan: Plan,
    /// Points evaluated and the final Pareto front.
    pub outcome: SweepOutcome,
    /// The explained Pareto front ([`explain_front`]).
    pub front_report: String,
}

/// The one explore path of `trisc explore` and NDJSON `explore`: plans
/// `grid` over `spec`, sweeps it through `store` (task texts in
/// `sources`, spec order) and explains the front. Each evaluated batch
/// streams into `on_batch`, the caller's sink — report rows for the CLI,
/// NDJSON frames for the server.
///
/// # Errors
///
/// Returns [`CliError`] on plan validation or analysis failure.
pub fn explore(
    store: &ArtifactStore,
    spec: &SystemSpec,
    sources: &[String],
    grid: &Grid,
    on_batch: impl FnMut(&[PointOutcome], &ParetoFront),
) -> Result<Explored, CliError> {
    let plan = Plan::new(spec, grid)?;
    let provider = store.sweep_provider(spec, sources);
    let outcome = run_sweep(&plan, &provider, store.cells(), on_batch)?;
    let front_report = explain_front(&plan, &provider, store.cells(), &outcome.front)?;
    Ok(Explored { plan, outcome, front_report })
}

/// `trisc explore GRID`: loads the grid file, its base spec and task
/// sources from disk, runs [`explore`] against a fresh store, and renders
/// the header, every per-point row and the explained Pareto front as one
/// report.
///
/// # Errors
///
/// Returns [`CliError`] on grid/spec parse failures, missing sources, or
/// analysis errors.
pub fn cmd_explore(grid_path: &Path) -> Result<String, CliError> {
    let text = std::fs::read_to_string(grid_path)
        .map_err(|e| CliError::Io(format!("{}: {e}", grid_path.display())))?;
    let grid = Grid::parse(&text)?;
    let spec_rel = grid.spec.clone().ok_or_else(|| {
        CliError::Spec("grid declares no `spec PATH`; `trisc explore` needs one".into())
    })?;
    let base_dir = grid_path.parent().unwrap_or_else(|| Path::new("."));
    let spec = SystemSpec::load(&base_dir.join(spec_rel))?;
    let sources = spec.read_sources()?;
    let mut rows = String::new();
    let explored = explore(&ArtifactStore::default(), &spec, &sources, &grid, |batch, _front| {
        for point in batch {
            let _ = writeln!(rows, "{}", render_point(point));
        }
    })?;
    let plan = &explored.plan;
    Ok(format!(
        "explore: {} points ({})\n{rows}\n{}",
        plan.len(),
        plan.describe_axes(),
        explored.front_report
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str =
        "cache 64 2 16\ncmiss 20\nccs 50\ntask hi hi.s 5000 1\ntask lo lo.s 50000 2\n";
    const TASK_HI: &str = ".data 0x100000\nbuf: .word 1,2,3,4\n.text 0x1000\nstart: li r1, buf\n\
                           li r3, 4\nloop: ld r2, 0(r1)\naddi r1, r1, 4\naddi r3, r3, -1\n\
                           bne r3, r0, loop\n.bound loop, 4\nhalt\n";
    const TASK_LO: &str = ".data 0x100400\nbuf: .word 7,8\n.text 0x2000\nstart: li r1, buf\n\
                           ld r2, 0(r1)\nld r4, 4(r1)\nadd r2, r2, r4\nhalt\n";

    fn spec() -> SystemSpec {
        SystemSpec::parse(SPEC, Path::new("")).unwrap()
    }

    fn sources() -> Vec<String> {
        vec![TASK_HI.into(), TASK_LO.into()]
    }

    #[test]
    fn single_point_sweep_matches_the_wcrt_pipeline() {
        // An empty grid sweeps exactly the base configuration; its WCRT
        // vector must agree with what `trisc wcrt` computes.
        let spec = spec();
        let plan = Plan::new(&spec, &Grid::default()).unwrap();
        let store = ArtifactStore::default();
        let sources = sources();
        let provider = store.sweep_provider(&spec, &sources);
        let outcome = run_sweep(&plan, &provider, store.cells(), |_, _| {}).unwrap();
        assert_eq!(outcome.points, 1);
        assert_eq!(outcome.front.len(), 1, "a single point is trivially non-dominated");
        let point = &outcome.front.members()[0];
        let reference: Vec<crpd::AnalyzedTask> = sources
            .iter()
            .zip(&spec.tasks)
            .map(|(source, t)| {
                crpd::AnalyzedTask::analyze(
                    &rtprogram::asm::assemble(&t.name, source).unwrap(),
                    crpd::TaskParams { period: t.period, priority: t.priority },
                    spec.cache.geometry().unwrap(),
                    spec.cache.model(),
                )
                .unwrap()
            })
            .collect();
        let matrix = crpd::CrpdMatrix::compute(crpd::CrpdApproach::Combined, &reference);
        let params = crpd::WcrtParams { miss_penalty: 20, ctx_switch: 50, max_iterations: 10_000 };
        assert_eq!(point.wcrt, crpd::analyze_all(&reference, &matrix, &params));
        assert!(point.schedulable);
    }

    #[test]
    fn sweep_report_streams_points_and_explains_the_front() {
        let dir = std::env::temp_dir().join(format!("rtexplore-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("hi.s"), TASK_HI).unwrap();
        std::fs::write(dir.join("lo.s"), TASK_LO).unwrap();
        std::fs::write(dir.join("system.spec"), SPEC).unwrap();
        let grid = "spec system.spec\nsets 32 64\nways 1 2\ncmiss 20 40\napproach all\n";
        std::fs::write(dir.join("sweep.grid"), grid).unwrap();
        let report = cmd_explore(&dir.join("sweep.grid")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(report.contains("explore: 32 points"), "{report}");
        assert!(report.contains("point 0 [App. 1 32x1x16"), "{report}");
        assert!(report.contains("point 31 [App. 4 64x2x16"), "{report}");
        assert!(report.contains("Pareto front ("), "{report}");
        assert!(report.contains("binding task `"), "{report}");
        // Front indices appear in ascending order.
        let mut last = None;
        for line in report.lines().skip_while(|l| !l.starts_with("Pareto front")) {
            if let Some(rest) = line.trim().strip_prefix("point ") {
                let index: usize = rest.split_whitespace().next().unwrap().parse().unwrap();
                assert!(last.is_none_or(|prev| prev < index), "front out of order: {report}");
                last = Some(index);
            }
        }
        assert!(last.is_some(), "front rendered at least one point: {report}");
    }

    #[test]
    fn artifacts_bind_once_per_unique_geometry_and_model() {
        // 2 geometries x 2 cmiss x 2 ccs x 2 pscale x 4 approaches = 64
        // points, but only 2x2 unique (geometry, model) keys per task:
        // the recorder must see exactly one analyze span per unique key
        // and a stage hit rate >= 0.9 across the sweep. A warm re-sweep on
        // the same store re-runs no pipeline stage and yields the same front.
        let grid =
            Grid::parse("sets 32 64\ncmiss 20 40\nccs 50 150\nperiod-scale 0.5 1\napproach all\n")
                .unwrap();
        let spec = spec();
        let plan = Plan::new(&spec, &grid).unwrap();
        assert_eq!(plan.len(), 64);
        let store = ArtifactStore::default();
        let sources = sources();
        let provider = store.sweep_provider(&spec, &sources);
        let session = rtobs::begin();
        let cold = run_sweep(&plan, &provider, store.cells(), |_, _| {}).unwrap();
        let stages = session.recorder().stage_durations();
        let counters = session.recorder().counters();
        let warm = run_sweep(&plan, &provider, store.cells(), |_, _| {}).unwrap();
        let warm_stages = session.recorder().stage_durations();
        drop(session);
        let span_count = |stage: &str| stages.get(stage).map(|(count, _)| *count).unwrap_or(0);
        assert_eq!(span_count("analyze"), 2 * 2 * 2, "one analyze per (task, geometry, model)");
        assert_eq!(span_count("assemble"), 2, "one assemble per task");
        assert_eq!(counters.explore.points, 64);
        let analyze = counters.stage_lookups.get("analyze").copied().unwrap_or_default();
        let rate = analyze.hits as f64 / (analyze.hits + analyze.misses) as f64;
        assert!(rate >= 0.9, "analyze stage hit rate {rate} below 0.9");
        for stage in ["assemble", "analyze", "trace", "ciip", "wcet"] {
            let warm_count = warm_stages.get(stage).map(|(count, _)| *count).unwrap_or(0);
            assert_eq!(warm_count, span_count(stage), "warm re-sweep re-ran stage {stage}");
        }
        assert_eq!(warm.front.members(), cold.front.members(), "warm re-sweep changed the front");
    }

    #[test]
    fn cmd_explore_reads_grid_spec_and_sources_from_disk() {
        let dir = std::env::temp_dir().join(format!("rtexplore-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("hi.s"), TASK_HI).unwrap();
        std::fs::write(dir.join("lo.s"), TASK_LO).unwrap();
        std::fs::write(dir.join("system.spec"), SPEC).unwrap();
        std::fs::write(dir.join("sweep.grid"), "spec system.spec\nsets 32 64\n").unwrap();
        let report = cmd_explore(&dir.join("sweep.grid")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(report.contains("explore: 2 points"), "{report}");
        // A grid without a spec line is rejected with the fix named.
        let err = {
            let dir = std::env::temp_dir().join(format!("rtexplore-nospec-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("bare.grid"), "sets 32\n").unwrap();
            let err = cmd_explore(&dir.join("bare.grid")).unwrap_err();
            std::fs::remove_dir_all(&dir).ok();
            err
        };
        assert!(err.to_string().contains("spec"), "{err}");
    }
}

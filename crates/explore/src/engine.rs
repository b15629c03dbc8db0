//! The sweep engine: batch-deduplicated artifact binding, parallel point
//! evaluation, and a deterministic index-ordered reduction into the
//! streamed [`ParetoFront`].

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

use crpd::{analyze_all, AnalyzedProgram, AnalyzedTask, CrpdCellCache, CrpdMatrix, WcrtParams};
use rtcache::CacheGeometry;
use rtcli::CliError;
use rtwcet::TimingModel;

use crate::{ParetoFront, Plan, PointConfig, PointOutcome};

/// The analysis provider a sweep runs against: maps `(task index,
/// geometry, model)` to the task's params-free artifact. Every caller
/// backs it with the single-flight [`rtcli::store::ArtifactStore`]: the
/// CLI and bench with one store per sweep, the server with its shared
/// store, so artifacts carry across requests.
pub type AnalyzeProvider<'a> = &'a (dyn Fn(usize, CacheGeometry, TimingModel) -> Result<Arc<AnalyzedProgram>, CliError>
         + Sync);

/// Points evaluated per streamed batch: large enough to amortize the
/// fan-out, small enough that results stream while the sweep runs.
pub const BATCH_POINTS: usize = 128;

/// Final tallies of one sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Total points evaluated (= the plan's length).
    pub points: usize,
    /// The final Pareto front.
    pub front: ParetoFront,
}

/// Runs every point of `plan` through `provider` and `cells`, streaming
/// each evaluated batch — outcomes in point-index order plus the running
/// front — into `on_batch`.
///
/// Within a batch the unique `(task, geometry, model)` combinations are
/// pre-bound first (each artifact analyzes exactly once per unique key,
/// in deduplicated key order), then the batch's points fan out over the
/// current [`rtpar`] pool against the now-warm provider. The reduction
/// folds in index order, so the front and every streamed byte are
/// identical at any pool size.
///
/// # Errors
///
/// Propagates the first provider or analysis error in point order.
pub fn run_sweep(
    plan: &Plan,
    provider: AnalyzeProvider<'_>,
    cells: &CrpdCellCache,
    mut on_batch: impl FnMut(&[PointOutcome], &ParetoFront),
) -> Result<SweepOutcome, CliError> {
    let _span = rtobs::span_labeled("explore", || format!("{} points", plan.len()));
    let mut front = ParetoFront::default();
    let mut done = 0usize;
    while done < plan.len() {
        let batch = done..plan.len().min(done + BATCH_POINTS);
        // Dedup this batch's artifact demand and warm each unique
        // (task, geometry, model) once, in key order.
        let unique: BTreeSet<(usize, u32, u32, u32, u64)> = batch
            .clone()
            .flat_map(|index| {
                let config = plan.point(index);
                let g = config.geometry;
                (0..plan.task_count())
                    .map(move |t| (t, g.sets(), g.ways(), g.line_bytes(), config.cmiss))
            })
            .collect();
        let unique: Vec<_> = unique.into_iter().collect();
        let warmed = rtpar::par_map(&unique, |&(task, sets, ways, line, cmiss)| {
            let geometry = CacheGeometry::new(sets, ways, line)
                .expect("plan construction validated every swept shape");
            provider(task, geometry, TimingModel::with_miss_penalty(cmiss)).map(|_| ())
        });
        for result in warmed {
            result?;
        }
        // Evaluate the batch against the warm provider; results come
        // back in index order.
        let outcomes = rtpar::par_map_range(batch.len(), |offset| {
            evaluate_point(plan, provider, cells, batch.start + offset)
        });
        let outcomes: Vec<PointOutcome> = outcomes.into_iter().collect::<Result<_, _>>()?;
        for outcome in &outcomes {
            front.offer(outcome);
        }
        rtobs::record_explore_points(outcomes.len() as u64);
        rtobs::record_explore_front(front.len() as u64);
        done = batch.end;
        on_batch(&outcomes, &front);
    }
    Ok(SweepOutcome { points: done, front })
}

/// Evaluates one sweep point: rebinds the cached artifacts to the
/// point's parameters, bounds the CRPD matrix through the shared cell
/// cache, and runs the Eq. 7 recurrence for every task.
pub fn evaluate_point(
    plan: &Plan,
    provider: AnalyzeProvider<'_>,
    cells: &CrpdCellCache,
    index: usize,
) -> Result<PointOutcome, CliError> {
    let config = plan.point(index);
    let (tasks, matrix, params) = bind_point(plan, provider, cells, &config)?;
    let wcrt = analyze_all(&tasks, &matrix, &params);
    let min_slack = tasks
        .iter()
        .zip(&wcrt)
        .map(|(t, r)| {
            i64::try_from(i128::from(t.params().period) - i128::from(r.cycles))
                .unwrap_or(if r.cycles > t.params().period { i64::MIN } else { i64::MAX })
        })
        .min()
        .unwrap_or(0);
    Ok(PointOutcome {
        schedulable: wcrt.iter().all(|r| r.schedulable),
        utilization: crpd::total_utilization(&tasks),
        cache_bytes: config.geometry.size_bytes(),
        min_slack,
        wcrt,
        config,
    })
}

/// Rebinds a point's tasks and computes its CRPD matrix — the shared
/// prefix of [`evaluate_point`] and [`explain_front`].
fn bind_point(
    plan: &Plan,
    provider: AnalyzeProvider<'_>,
    cells: &CrpdCellCache,
    config: &PointConfig,
) -> Result<(Vec<AnalyzedTask>, CrpdMatrix, WcrtParams), CliError> {
    let programs: Vec<Arc<AnalyzedProgram>> = (0..plan.task_count())
        .map(|t| provider(t, config.geometry, config.model()))
        .collect::<Result<_, _>>()?;
    let tasks = AnalyzedTask::bind_all(&programs, &plan.params_for(config));
    let matrix = CrpdMatrix::compute_with(config.approach, &tasks, cells);
    let params =
        WcrtParams { miss_penalty: config.cmiss, ctx_switch: config.ccs, ..WcrtParams::default() };
    Ok((tasks, matrix, params))
}

/// Renders one point outcome as the sweep's compact per-point row.
pub fn render_point(outcome: &PointOutcome) -> String {
    let wcrt: Vec<String> = outcome.wcrt.iter().map(|r| r.cycles.to_string()).collect();
    format!(
        "point {} [{}] sched={} util={:.4} bytes={} slack={} R=[{}]",
        outcome.config.index,
        outcome.config.describe(),
        if outcome.schedulable { "yes" } else { "no" },
        outcome.utilization,
        outcome.cache_bytes,
        outcome.min_slack,
        wcrt.join(" ")
    )
}

/// How many cache sets the front explanation names per preemption pair.
const EXPLAIN_TOP_SETS: usize = 3;

/// Renders the binding-constraint explanation for every front point, in
/// point-index order: the slack-binding task's Eq. 7 breakdown (the
/// `--explain` machinery) plus the top cache sets of each preemption
/// pair's combined overlap bound. Re-binds each point through the (now
/// fully warm) provider, so no pipeline stage re-runs.
///
/// # Errors
///
/// Propagates provider errors (none occur after a completed sweep).
pub fn explain_front(
    plan: &Plan,
    provider: AnalyzeProvider<'_>,
    cells: &CrpdCellCache,
    front: &ParetoFront,
) -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(out, "Pareto front ({} points):", front.len());
    for member in front.members() {
        let _ = writeln!(out, "  {}", render_point(member));
        let (tasks, matrix, params) = bind_point(plan, provider, cells, &member.config)?;
        // The binding constraint: the task with the least slack (ties go
        // to the lowest index).
        let binding = tasks
            .iter()
            .zip(&member.wcrt)
            .enumerate()
            .min_by_key(|(_, (t, r))| i128::from(t.params().period) - i128::from(r.cycles))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let b = crpd::explain_response_time(&tasks, &matrix, binding, &params);
        let label = format!("binding task `{}`", tasks[binding].name());
        rtcli::write_explanation(&mut out, [(label, b)], &tasks, binding, EXPLAIN_TOP_SETS);
    }
    Ok(out)
}

//! `sweep_sched`: one op is one `rtexplore::run_sweep` over Experiment
//! I's tasks against artifacts analyzed once in set-up, with a fresh
//! `CrpdCellCache` per op — what one `trisc explore` run pays after its
//! artifacts exist. It times `crpd::approaches`, `crpd::wcrt` and
//! `rtexplore` and bypasses the ISS and WCET entirely, so it is the
//! no-change control for work on the cold analysis path.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

use crpd::{
    analyze_all, AnalyzedProgram, AnalyzedTask, CrpdCellCache, CrpdMatrix, WcrtParams, WcrtResult,
};
use rtcache::CacheGeometry;
use rtcli::{CliError, SystemSpec};
use rtexplore::{run_sweep, Grid, ParetoFront, Plan, PointConfig, PointOutcome, BATCH_POINTS};
use rtwcet::TimingModel;

use crate::layers::TracedWindow;
use crate::measure::{self, Outcome, SplitMix};
use crate::trace::Tracer;
use crate::Args;

/// Small caches, so every task's working set overflows them, crossed
/// with every scheduling axis. The cache axes decide which CRPD cells a
/// sweep computes: 4 approaches x 4 (geometry, cmiss) keys x 6 ordered
/// task pairs = 96. The scheduling axes (1800 combinations per approach
/// and key, 28800 points in all) bind, run Eq. 7 and enter the front
/// without new cells; they are sized so that this takes about a quarter
/// or more of the op.
const GRID: &str = "\
sets 16
ways 1 2
line 16
cmiss 20 40
ccs 20 40 60 80 100 120 140 160 180 200 220 240 260 280 300 320 340 360 380 400 420 440 460 480
period-scale 0.5 0.55 0.6 0.65 0.7 0.75 0.8 0.85 0.9 0.95 1 1.05 1.1 1.15 1.2 1.25 1.3 1.35 1.4 1.45 1.5 1.55 1.6 1.65 1.7
priority-rot 0 1 2
approach all
";

const MAX_ITERATIONS: u32 = 10_000;

/// `(task, sets, ways, line, cmiss)`: the analyze-stage key of a sweep.
type Key = (usize, u32, u32, u32, u64);

struct Setup {
    plan: Plan,
    artifacts: BTreeMap<Key, Arc<AnalyzedProgram>>,
    /// Rows and front of the same sweep computed with the uncached
    /// `CrpdMatrix::compute`.
    rows: Vec<PointOutcome>,
    front: ParetoFront,
}

impl Setup {
    fn provider(
        &self,
        task: usize,
        geometry: CacheGeometry,
        model: TimingModel,
    ) -> Result<Arc<AnalyzedProgram>, CliError> {
        let key =
            (task, geometry.sets(), geometry.ways(), geometry.line_bytes(), model.miss_penalty);
        self.artifacts
            .get(&key)
            .cloned()
            .ok_or_else(|| CliError::Analysis(format!("no set-up artifact for {key:?}")))
    }
}

/// The base system: Experiment I with seeded periods (utilization near
/// the paper's) and the paper's priority order.
fn base_spec(seed: u64) -> SystemSpec {
    let mut rng = SplitMix::new(seed);
    let mut text = String::from("cache 32 2 16\ncmiss 20\nccs 200\n");
    // Paper periods in µs scaled to cycles, jittered by the seed.
    for (name, period_us, priority) in [("mr", 3_500, 2), ("ed", 6_500, 3), ("ofdm", 40_000, 4)] {
        let period = period_us * rng.range(95, 105);
        text.push_str(&format!("task {name} {name}.s {period} {priority}\n"));
    }
    SystemSpec::parse(&text, Path::new("")).expect("the base spec parses")
}

fn setup(seed: u64, pool: &rtpar::Pool) -> Setup {
    let plan = Plan::new(&base_spec(seed), &Grid::parse(GRID).expect("the grid parses"))
        .expect("the grid is valid");
    let programs = rtworkloads::experiment1();
    let keys: BTreeSet<Key> = (0..plan.len())
        .flat_map(|i| {
            let c = plan.point(i);
            let g = c.geometry;
            (0..programs.len()).map(move |t| (t, g.sets(), g.ways(), g.line_bytes(), c.cmiss))
        })
        .collect();
    let artifacts = pool.install(|| {
        keys.into_iter()
            .map(|key @ (task, sets, ways, line, cmiss)| {
                let geometry = CacheGeometry::new(sets, ways, line).expect("valid geometry");
                let model = TimingModel::with_miss_penalty(cmiss);
                let artifact = AnalyzedProgram::analyze(&programs[task], geometry, model)
                    .expect("Experiment I analyzes");
                (key, Arc::new(artifact))
            })
            .collect()
    });
    let mut s = Setup { plan, artifacts, rows: Vec::new(), front: ParetoFront::default() };
    // An uncached matrix depends on the point only through its approach,
    // artifacts and priority order, so the reference computes each one
    // once and shares it between the points that differ in ccs or period.
    let mut matrices = BTreeMap::new();
    let rows: Vec<PointOutcome> = pool.install(|| {
        (0..s.plan.len())
            .map(|i| {
                let config = s.plan.point(i);
                let tasks = bind(&s, &config);
                let g = config.geometry;
                let key = (
                    config.approach.label(),
                    g.sets(),
                    g.ways(),
                    config.cmiss,
                    config.priority_rot,
                );
                let matrix = matrices
                    .entry(key)
                    .or_insert_with(|| CrpdMatrix::compute(config.approach, &tasks));
                let wcrt = analyze_all(&tasks, matrix, &wcrt_params(&config));
                outcome(config, &tasks, wcrt)
            })
            .collect()
    });
    for row in &rows {
        s.front.offer(row);
    }
    s.rows = rows;
    s
}

fn wcrt_params(config: &PointConfig) -> WcrtParams {
    WcrtParams {
        miss_penalty: config.cmiss,
        ctx_switch: config.ccs,
        max_iterations: MAX_ITERATIONS,
    }
}

/// The point's tasks: its artifacts bound to its scheduling parameters.
fn bind(s: &Setup, config: &PointConfig) -> Vec<AnalyzedTask> {
    let programs: Vec<Arc<AnalyzedProgram>> = (0..s.plan.task_count())
        .map(|t| s.provider(t, config.geometry, config.model()).expect("set-up artifact"))
        .collect();
    AnalyzedTask::bind_all(&programs, &s.plan.params_for(config))
}

/// A point's row, computed as `rtexplore::evaluate_point` documents it.
fn outcome(config: PointConfig, tasks: &[AnalyzedTask], wcrt: Vec<WcrtResult>) -> PointOutcome {
    let min_slack = tasks
        .iter()
        .zip(&wcrt)
        .map(|(t, r)| {
            i64::try_from(i128::from(t.params().period) - i128::from(r.cycles))
                .unwrap_or(if r.cycles > t.params().period { i64::MIN } else { i64::MAX })
        })
        .min()
        .unwrap_or(0);
    PointOutcome {
        schedulable: wcrt.iter().all(|r| r.schedulable),
        utilization: crpd::total_utilization(tasks),
        cache_bytes: config.geometry.size_bytes(),
        min_slack,
        wcrt,
        config,
    }
}

/// The op: one sweep with a fresh cell cache; true when every row and
/// the front equal the uncached set-up sweep.
fn op(s: &Setup) -> bool {
    let cells = CrpdCellCache::default();
    let provider = |task: usize, geometry, model| s.provider(task, geometry, model);
    let mut done = 0;
    let mut rows_match = true;
    let swept = run_sweep(&s.plan, &provider, &cells, |batch, _| {
        rows_match &= batch == &s.rows[done..done + batch.len()];
        done += batch.len();
    });
    match swept {
        Ok(outcome) => {
            rows_match && done == s.rows.len() && outcome.front.members() == s.front.members()
        }
        Err(e) => {
            eprintln!("sweep_sched: sweep failed: {e}");
            false
        }
    }
}

/// The op rebuilt from `run_sweep`'s public parts, with a span around
/// each layer call.
fn traced_op(s: &Setup, t: &mut Tracer) -> bool {
    let cells = CrpdCellCache::default();
    let mut front = ParetoFront::default();
    let mut rows_match = true;
    let mut start = 0;
    while start < s.plan.len() {
        let batch = start..s.plan.len().min(start + BATCH_POINTS);
        // The batch's artifact demand, warmed once per unique key.
        t.span("rtexplore.bind", |_| {
            let unique: BTreeSet<Key> = batch
                .clone()
                .flat_map(|i| {
                    let c = s.plan.point(i);
                    let g = c.geometry;
                    (0..s.plan.task_count())
                        .map(move |t| (t, g.sets(), g.ways(), g.line_bytes(), c.cmiss))
                })
                .collect();
            for (task, sets, ways, line, cmiss) in unique {
                let geometry = CacheGeometry::new(sets, ways, line).expect("valid geometry");
                s.provider(task, geometry, TimingModel::with_miss_penalty(cmiss))
                    .expect("set-up artifact");
            }
        });
        let mut outcomes = Vec::with_capacity(batch.len());
        for index in batch.clone() {
            let (config, tasks) = t.span("rtexplore.bind", |_| {
                let config = s.plan.point(index);
                let tasks = bind(s, &config);
                (config, tasks)
            });
            let matrix = t.span("crpd.approaches.cell", |_| {
                CrpdMatrix::compute_with(config.approach, &tasks, &cells)
            });
            let wcrt = t.span("crpd.wcrt.fixpoint", |_| {
                analyze_all(&tasks, &matrix, &wcrt_params(&config))
            });
            t.count("crpd.wcrt.iterations", wcrt.iter().map(|r| u64::from(r.iterations)).sum());
            outcomes.push(t.span("rtexplore.outcome", |_| outcome(config, &tasks, wcrt)));
        }
        t.span("rtexplore.front", |_| {
            for o in &outcomes {
                front.offer(o);
            }
        });
        rows_match &= outcomes == s.rows[batch.clone()];
        start = batch.end;
    }
    t.count("rtexplore.points", start as u64);
    t.count("rtexplore.front_size", front.len() as u64);
    t.count("crpd.approaches.cells_computed", cells.misses());
    t.count("crpd.approaches.cell_lookups", cells.hits() + cells.misses());
    rows_match && front.members() == s.front.members()
}

pub fn run(args: &Args, pool: &rtpar::Pool) -> Outcome {
    let (setup_s, s) = measure::repeated_setup(|| {
        let s = setup(args.seed, pool);
        pool.install(|| op(&s));
        s
    });
    let points = s.plan.len() as u64;
    let (mut window, traced) = if args.trace {
        let traced = TracedWindow::run(
            args.seconds,
            || pool.install(|| op(&s)),
            |t| pool.install(|| traced_op(&s, t)),
        );
        (None, Some(traced))
    } else {
        let ops = |_| (points, pool.install(|| op(&s)));
        (Some(measure::timed_window(args.seconds, ops, |_| {})), None)
    };
    // The sweep must not depend on the pool size.
    let mut failures = Vec::new();
    if !rtpar::Pool::new(2).install(|| op(&s)) {
        failures.push("the sweep on a 2-thread pool differs from the reference".to_string());
    }
    if let Some(window) = &mut window {
        measure::fail_all_unless(window, "sweep_sched", &failures);
        return Outcome::end_to_end(setup_s, window);
    }
    let mut traced = traced.expect("one of the two windows ran");
    measure::fail_all_unless(&mut traced.window, "sweep_sched", &failures);
    let counts = traced.tracer.counts();
    let (computed, lookups) =
        (counts["crpd.approaches.cells_computed"], counts["crpd.approaches.cell_lookups"]);
    let mut extra = BTreeMap::new();
    extra.insert(
        "crpd.approaches.cell_hit_ratio".to_string(),
        1.0 - computed as f64 / lookups as f64,
    );
    traced.outcome("sweep_sched", extra)
}

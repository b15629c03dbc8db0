//! The staged artifact DAG's incremental-invalidation contract, end to
//! end: a period/priority-only edit to a cached system re-runs **zero**
//! pipeline stages (no `assemble`/`trace`/`wcet`/`ciip`/`analyze` spans,
//! only cache hits), repeated WCRT requests hit the `CrpdMatrix` cell
//! cache, and every cached report stays byte-identical to a cold one.

use std::path::Path;

use crpd::{AnalyzedTask, CrpdCellCache, TaskParams};
use proptest::prelude::*;
use rtcli::store::{ArtifactStore, TaskSource};
use rtcli::SystemSpec;

const SPEC: &str = "cache 64 2 16\ncmiss 20\nccs 50\ntask hi hi.s 5000 1\ntask lo lo.s 50000 2\n";
const TASK_HI: &str = ".data 0x100000\nbuf: .word 1,2,3,4\n.text 0x1000\nstart: li r1, buf\nli r3, 4\nloop: ld r2, 0(r1)\naddi r1, r1, 4\naddi r3, r3, -1\nbne r3, r0, loop\n.bound loop, 4\nhalt\n";
const TASK_LO: &str = ".data 0x100400\nbuf: .word 7,8\n.text 0x2000\nstart: li r1, buf\nld r2, 0(r1)\nld r4, 4(r1)\nadd r2, r2, r4\nhalt\n";

fn spec() -> SystemSpec {
    SystemSpec::parse(SPEC, Path::new("")).expect("spec parses")
}

/// Analyzes both tasks through `store` under explicit params.
fn tasks_via_store(
    store: &ArtifactStore,
    spec: &SystemSpec,
    params: [TaskParams; 2],
) -> Vec<AnalyzedTask> {
    let geometry = spec.cache.geometry().unwrap();
    let model = spec.cache.model();
    let [hi, lo] = params;
    let analyzed = |name, source, params| {
        let program = store.analyzed_program(TaskSource::new(name, source), geometry, model);
        AnalyzedTask::bind(program.expect("task analyzes"), params)
    };
    vec![analyzed("hi", TASK_HI, hi), analyzed("lo", TASK_LO, lo)]
}

/// The store's `analyze`-stage `(hits, misses)`.
fn analyze_lookups(store: &ArtifactStore) -> (u64, u64) {
    let stats = store.stage_stats().into_iter().find(|s| s.stage == "analyze").unwrap();
    (stats.hits, stats.misses)
}

/// Cold reference: fresh (storeless, cacheless) analysis and rendering.
fn cold_report(spec: &SystemSpec, params: [TaskParams; 2]) -> String {
    let geometry = spec.cache.geometry().unwrap();
    let model = spec.cache.model();
    let [hi, lo] = params;
    let assemble = |name: &str, source: &str| rtprogram::asm::assemble(name, source).unwrap();
    let tasks = vec![
        AnalyzedTask::analyze(&assemble("hi", TASK_HI), hi, geometry, model).unwrap(),
        AnalyzedTask::analyze(&assemble("lo", TASK_LO), lo, geometry, model).unwrap(),
    ];
    rtcli::cmd_wcrt_cached(spec, &tasks, &CrpdCellCache::default()).unwrap()
}

#[test]
fn param_only_change_reruns_zero_pipeline_stages() {
    let spec = spec();
    let p1 =
        [TaskParams { period: 5_000, priority: 1 }, TaskParams { period: 50_000, priority: 2 }];
    // A period-only edit to task `hi`; priorities (and thus the set of
    // feasible preemption pairs) are unchanged.
    let p2 =
        [TaskParams { period: 4_000, priority: 1 }, TaskParams { period: 50_000, priority: 2 }];

    // Warm the DAG at P1 and render once, so every stage is cached.
    let store = ArtifactStore::default();
    let warm_tasks = tasks_via_store(&store, &spec, p1.clone());
    rtcli::cmd_wcrt_cached(&spec, &warm_tasks, store.cells()).unwrap();
    assert_eq!(analyze_lookups(&store).1, 2, "cold run analyzes both tasks");
    let cells_before = store.cells().misses();
    assert!(cells_before > 0, "the warm render bounded some preemption pairs");

    // Re-request with P2 under a recorder: the only work left is the
    // WCRT fixpoint itself.
    let session = rtobs::begin();
    let rebound = tasks_via_store(&store, &spec, p2.clone());
    let warm_report = rtcli::cmd_wcrt_cached(&spec, &rebound, store.cells()).unwrap();
    let spans = session.recorder().spans();
    let counters = session.recorder().counters();
    drop(session);

    for stage in ["assemble", "trace", "wcet", "ciip", "analyze", "mumbs"] {
        assert!(
            !spans.iter().any(|s| s.stage == stage),
            "a param-only change must re-run zero `{stage}` spans, got: {:?}",
            spans.iter().map(|s| s.stage).collect::<Vec<_>>()
        );
    }
    assert!(spans.iter().any(|s| s.stage == "wcrt"), "the fixpoint itself re-runs");
    let lookups = |stage: &str| counters.stage_lookups.get(stage).copied().unwrap_or_default();
    assert_eq!((lookups("assemble").hits, lookups("assemble").misses), (2, 0));
    assert_eq!((lookups("analyze").hits, lookups("analyze").misses), (2, 0));
    assert_eq!(lookups("crpd_cell").misses, 0, "all pairwise bounds come from the cell cache");
    assert!(lookups("crpd_cell").hits > 0);
    assert_eq!(store.cells().misses(), cells_before, "no cell recomputed");
    assert_eq!(analyze_lookups(&store), (2, 2));

    // And the cached P2 report matches a cold P2 analysis byte-for-byte.
    assert_eq!(warm_report, cold_report(&spec, p2));
}

#[test]
fn repeated_wcrt_requests_hit_the_cell_cache() {
    let spec = spec();
    let params =
        [TaskParams { period: 5_000, priority: 1 }, TaskParams { period: 50_000, priority: 2 }];
    let store = ArtifactStore::default();
    let tasks = tasks_via_store(&store, &spec, params.clone());

    let first = rtcli::cmd_wcrt_cached(&spec, &tasks, store.cells()).unwrap();
    let (hits_1, misses_1) = (store.cells().hits(), store.cells().misses());
    // One feasible pair (lo preempted by hi) under four approaches.
    assert_eq!(misses_1, 4, "each approach bounds the one feasible pair once");
    assert_eq!(hits_1, 0);

    let second = rtcli::cmd_wcrt_cached(&spec, &tasks, store.cells()).unwrap();
    assert_eq!(second, first, "identical requests render identical bytes");
    assert_eq!(store.cells().misses(), misses_1, "no cell recomputed on the repeat");
    assert_eq!(store.cells().hits(), hits_1 + 4, "every cell served from cache");

    // The cached report matches the uncached rendering path too.
    assert_eq!(first, rtcli::cmd_wcrt_cached(&spec, &tasks, &CrpdCellCache::default()).unwrap());
    assert_eq!(first, cold_report(&spec, params));
}

/// Strategy for one system's `[hi, lo]` params. Priorities are derived
/// from a base plus a non-zero offset — the recurrence rejects duplicate
/// priorities.
fn arb_system() -> impl Strategy<Value = [TaskParams; 2]> {
    (1_000u64..1_000_000, 1_000u64..1_000_000, 1u32..5, 1u32..5).prop_map(
        |(period_a, period_b, prio, offset)| {
            [
                TaskParams { period: period_a, priority: prio },
                TaskParams { period: period_b, priority: prio + offset },
            ]
        },
    )
}

/// Strategy for a randomized sweep grid plus a point-picking seed: each
/// axis draws a small value list (cache shape, miss penalty, period
/// scaling, priority rotation), and every grid sweeps all four CRPD
/// approaches and two context-switch costs.
fn arb_sweep_grid() -> impl Strategy<Value = (rtexplore::Grid, u64)> {
    (
        prop::sample::select(vec![vec![32u32], vec![32, 64], vec![64, 128]]),
        prop::sample::select(vec![vec![1u32], vec![1, 2], vec![2, 4]]),
        prop::sample::select(vec![vec![10u64], vec![20, 40]]),
        prop::sample::select(vec![vec![1.0f64], vec![0.5, 2.0]]),
        prop::sample::select(vec![vec![0u32], vec![0, 1]]),
        0u64..1_000_000,
    )
        .prop_map(|(sets, ways, cmiss, period_scale, priority_rot, seed)| {
            let grid = rtexplore::Grid {
                sets,
                ways,
                cmiss,
                period_scale,
                priority_rot,
                ccs: vec![50, 150],
                approach: crpd::CrpdApproach::ALL.to_vec(),
                ..rtexplore::Grid::default()
            };
            (grid, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite: rebinding a random point of a randomized sweep grid
    /// through the warmed artifact DAG is bit-identical to a fresh
    /// from-scratch analysis of that point — same WCRT vector, same
    /// schedulability — and re-evaluating the point stays bit-identical.
    #[test]
    fn sweep_point_rebind_matches_fresh_analysis(case in arb_sweep_grid()) {
        let (grid, seed) = case;
        let spec = spec();
        let plan = rtexplore::Plan::new(&spec, &grid).unwrap();
        let index = (seed % plan.len() as u64) as usize;

        // Warm the DAG at the base configuration first, like a server
        // that has already served plain `wcrt` traffic for this system.
        let store = ArtifactStore::default();
        tasks_via_store(&store, &spec, [
            TaskParams { period: 5_000, priority: 1 },
            TaskParams { period: 50_000, priority: 2 },
        ]);

        // The sweep point, evaluated by rebinding through the DAG.
        let tasks = [("hi", TASK_HI), ("lo", TASK_LO)];
        let sources = tasks.map(|(name, source)| TaskSource::new(name, source));
        let provider =
            |task: usize, geometry, model| store.analyzed_program(sources[task], geometry, model);
        let outcome =
            rtexplore::evaluate_point(&plan, &provider, store.cells(), index).unwrap();

        // The same point, analyzed from scratch with no store anywhere.
        let config = plan.point(index);
        let params = plan.params_for(&config);
        let fresh: Vec<AnalyzedTask> = tasks
            .iter()
            .zip(&params)
            .map(|((name, source), p)| {
                AnalyzedTask::analyze(
                    &rtprogram::asm::assemble(name, source).unwrap(),
                    p.clone(),
                    config.geometry,
                    config.model(),
                )
                .unwrap()
            })
            .collect();
        let matrix = crpd::CrpdMatrix::compute(config.approach, &fresh);
        let wcrt = crpd::analyze_all(&fresh, &matrix, &crpd::WcrtParams {
            miss_penalty: config.cmiss,
            ctx_switch: config.ccs,
            max_iterations: 10_000,
        });
        prop_assert_eq!(&outcome.wcrt, &wcrt,
            "DAG-rebound point {} must match a from-scratch analysis", index);

        // A second evaluation through the (now fully warm) DAG changes
        // nothing — not the WCRT vector, not the derived objectives.
        let again =
            rtexplore::evaluate_point(&plan, &provider, store.cells(), index).unwrap();
        prop_assert_eq!(outcome, again);
    }

    /// Satellite: analyzing under params P1 and rebinding the cached
    /// `AnalyzedProgram`s to P2 yields a report byte-identical to a
    /// fresh analysis at P2 — at 1 and at 8 threads.
    #[test]
    fn rebinding_matches_fresh_analysis_at_any_thread_count(
        p1 in arb_system(), p2 in arb_system(),
    ) {
        let spec = spec();
        for threads in [1usize, 8] {
            let pool = rtpar::Pool::new(threads);
            let (via_rebind, fresh) = pool.install(|| {
                let store = ArtifactStore::default();
                // Analyze under P1, then rebind the cached artifacts to P2.
                tasks_via_store(&store, &spec, p1.clone());
                let rebound = tasks_via_store(&store, &spec, p2.clone());
                let via_rebind =
                    rtcli::cmd_wcrt_cached(&spec, &rebound, store.cells()).unwrap();
                (via_rebind, cold_report(&spec, p2.clone()))
            });
            prop_assert_eq!(
                &via_rebind, &fresh,
                "threads={}: rebound P1->P2 report must equal a fresh P2 analysis", threads
            );
        }
    }
}

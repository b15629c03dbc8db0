//! Pins way-partitioning to the scheduler co-simulation. Under an even
//! way split each task owns `ways / n` ways of every set, so no task can
//! evict another's lines: [`crpd::partitioned_analyze_all`] charges zero
//! CRPD and re-estimates each WCET at the task's private geometry. The
//! co-simulation's `CacheMode::Private` at that geometry is the same
//! machine, so every schedulable task's partitioned WCRT, plus the
//! farm's release slack, must cover its measured response.

use rtfuzz::oracle::HORIZON_CAP;
use rtfuzz::spec::generate;
use rtsched::{simulate, CacheMode, SchedConfig, SchedTask, VariantPolicy};

/// Seeds scanned; the even-split filter keeps roughly a third of them.
const SEEDS: u64 = 400;

#[test]
fn partitioned_wcrt_covers_private_cache_co_simulation() {
    let mut checked_tasks = 0usize;
    for seed in 0..SEEDS {
        let spec = generate(seed);
        let n = spec.tasks.len() as u32;
        if !spec.ways.is_multiple_of(n) {
            continue;
        }
        let built = rtfuzz::oracle::build(&spec).expect("generated points build");
        let ways = crpd::even_way_partition(built.geometry, spec.tasks.len()).expect("ways >= n");
        let params: Vec<crpd::TaskParams> =
            built.analyzed.iter().map(|t| t.params().clone()).collect();
        let parted = crpd::partitioned_analyze_all(
            &built.programs,
            &params,
            built.geometry,
            built.model,
            &ways,
            spec.ctx_switch,
            10_000,
        )
        .expect("partitioned analysis");

        let private = rtcache::CacheGeometry::new(spec.sets, spec.ways / n, spec.line)
            .expect("an even split of a valid geometry is valid");
        let config = SchedConfig {
            geometry: private,
            model: built.model,
            ctx_switch: spec.ctx_switch,
            horizon: built
                .periods
                .iter()
                .copied()
                .max()
                .unwrap_or(1)
                .saturating_mul(3)
                .min(HORIZON_CAP),
            variant_policy: VariantPolicy::Worst,
            cache_mode: CacheMode::Private,
            replacement: Default::default(),
            l2: None,
        };
        let sched: Vec<SchedTask> = built
            .programs
            .iter()
            .zip(&params)
            .map(|(p, prm)| SchedTask::new(p.clone(), prm.period, prm.priority))
            .collect();
        let report = simulate(&sched, &config).expect("co-simulation runs");

        // A release takes effect at an instruction boundary and may wait
        // out the `2·Ccs` charged when a preempted job resumes (the same
        // slack the farm's WCRT oracle allows).
        let slack = built.model.cpi + 2 * built.model.miss_penalty + 2 * spec.ctx_switch;
        for (i, t) in parted.iter().enumerate() {
            if !t.response.schedulable {
                continue;
            }
            checked_tasks += 1;
            let measured = report.tasks[i].max_response;
            assert!(
                measured <= t.response.cycles + slack,
                "seed {seed}, task {i} ({} of {} ways): measured {measured} > partitioned \
                 WCRT {} (+slack {slack})\n{}",
                t.ways,
                spec.ways,
                t.response.cycles,
                spec.render()
            );
        }
    }
    assert!(checked_tasks >= 100, "only {checked_tasks} schedulable tasks checked");
}

//! The Eq. 7 loop ([`crpd::fixpoint`]) against the two loops it
//! replaced: the plain recurrence behind `response_time` and the
//! term-splitting recomputation behind `--explain`, kept here verbatim
//! as references. On random systems every task must get the same
//! `WcrtResult` from all three, and the same cost terms as the
//! `--explain` loop.

use proptest::prelude::*;

use crpd::{StopReason, TaskParams, WcrtBreakdown, WcrtParams, WcrtResult};

/// The plain Eq. 7 recurrence as `response_time` ran it: `cpre(i, j)` is
/// the full per-preemption cost `Cpre(T_i, T_j) + 2·Ccs` in cycles.
fn reference_recurrence(
    wcets: &[u64],
    periods: &[u64],
    priorities: &[u32],
    cpre: &dyn Fn(usize, usize) -> u64,
    i: usize,
    max_iterations: u32,
) -> WcrtResult {
    assert_eq!(wcets.len(), periods.len());
    assert_eq!(wcets.len(), priorities.len());
    let hp: Vec<usize> = (0..wcets.len()).filter(|j| priorities[*j] < priorities[i]).collect();
    for j in 0..wcets.len() {
        assert!(j == i || priorities[j] != priorities[i], "duplicate priorities are not supported");
    }
    let deadline = periods[i];
    let mut r = wcets[i];
    let mut iterations = 0;
    loop {
        iterations += 1;
        let interference: u64 =
            hp.iter().map(|&j| r.div_ceil(periods[j]) * (wcets[j] + cpre(i, j))).sum();
        let next = wcets[i] + interference;
        if next == r {
            break WcrtResult {
                cycles: r,
                schedulable: r <= deadline,
                iterations,
                stop: StopReason::Converged,
            };
        }
        if next > deadline || iterations >= max_iterations {
            let stop = if next > deadline {
                StopReason::DeadlineExceeded
            } else {
                StopReason::IterationCap
            };
            break WcrtResult { cycles: next, schedulable: false, iterations, stop };
        }
        r = next;
    }
}

/// The `--explain` recomputation, with the CRPD matrix cell replaced by
/// `lines(i, j)`.
fn reference_explain(
    wcets: &[u64],
    periods: &[u64],
    priorities: &[u32],
    lines: &dyn Fn(usize, usize) -> u64,
    i: usize,
    params: &WcrtParams,
) -> WcrtBreakdown {
    let hp: Vec<usize> = (0..wcets.len()).filter(|j| priorities[*j] < priorities[i]).collect();
    for j in 0..wcets.len() {
        assert!(j == i || priorities[j] != priorities[i], "duplicate priorities are not supported");
    }
    let deadline = periods[i];
    let mut r = wcets[i];
    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut interference = 0u64;
        let mut crpd = 0u64;
        let mut ctx_switch = 0u64;
        let mut preemptions = 0u64;
        for &j in &hp {
            let activations = r.div_ceil(periods[j]);
            preemptions += activations;
            interference += activations * wcets[j];
            crpd += activations * (lines(i, j) * params.miss_penalty);
            ctx_switch += activations * 2 * params.ctx_switch;
        }
        let next = wcets[i] + interference + crpd + ctx_switch;
        let stop = if next == r {
            StopReason::Converged
        } else if next > deadline {
            StopReason::DeadlineExceeded
        } else if iterations >= params.max_iterations {
            StopReason::IterationCap
        } else {
            r = next;
            continue;
        };
        let schedulable = stop == StopReason::Converged && next <= deadline;
        return WcrtBreakdown {
            result: WcrtResult { cycles: next, schedulable, iterations, stop },
            wcet: wcets[i],
            interference,
            crpd,
            ctx_switch,
            preemptions,
        };
    }
}

/// A random fixed-priority system in Eq. 7's terms.
#[derive(Debug, Clone)]
struct System {
    wcets: Vec<u64>,
    tasks: Vec<TaskParams>,
    /// `lines[i][j]`: lines `T_i` reloads per preemption by `T_j`.
    lines: Vec<Vec<u64>>,
    params: WcrtParams,
}

/// 1–6 tasks with distinct priorities; periods anywhere in 1..=10⁶ or
/// within a few cycles of the task's WCET (either side), so converged,
/// deadline-exceeded and capped tasks all occur; reload costs of 0–10⁴
/// cycles (≤ 500 lines at Cmiss ≤ 20), Ccs 0–500 and an iteration cap
/// of 1–10 000.
fn arb_system() -> impl Strategy<Value = System> {
    let task = (0u64..=20_000, 1u64..=1_000_000, 0u64..=13, 0u32..=1, 0u64..=u64::from(u32::MAX));
    (
        prop::collection::vec(task, 1..7),
        prop::collection::vec(0u64..=500, 36..37),
        0u64..=20,
        0u64..=500,
        prop_oneof![1u32..=8, 1u32..=10_000],
    )
        .prop_map(|(raw, lines, miss_penalty, ctx_switch, max_iterations)| {
            let n = raw.len();
            // Priorities rank the random keys (ties by index): distinct.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&k| (raw[k].4, k));
            let mut priorities = vec![0u32; n];
            for (rank, &k) in order.iter().enumerate() {
                priorities[k] = rank as u32 + 1;
            }
            let wcets: Vec<u64> = raw.iter().map(|t| t.0).collect();
            let tasks = raw
                .iter()
                .zip(&priorities)
                .map(|(&(wcet, period, near, tight, _), &priority)| TaskParams {
                    period: if tight == 1 {
                        (wcet + near).saturating_sub(3).max(1)
                    } else {
                        period
                    },
                    priority,
                })
                .collect();
            let lines = (0..n).map(|i| (0..n).map(|j| lines[i * 6 + j]).collect()).collect();
            System {
                wcets,
                tasks,
                lines,
                params: WcrtParams { miss_penalty, ctx_switch, max_iterations },
            }
        })
}

/// Runs task `i` through the loop and both references, asserting they
/// agree, and returns the loop's breakdown.
fn check_task(s: &System, i: usize) -> WcrtBreakdown {
    let periods: Vec<u64> = s.tasks.iter().map(|t| t.period).collect();
    let priorities: Vec<u32> = s.tasks.iter().map(|t| t.priority).collect();
    let lines = |i: usize, j: usize| s.lines[i][j];
    let cpre = |i: usize, j: usize| lines(i, j) * s.params.miss_penalty + 2 * s.params.ctx_switch;
    let got = crpd::fixpoint(&s.wcets, &s.tasks, lines, i, &s.params, None);
    let plain =
        reference_recurrence(&s.wcets, &periods, &priorities, &cpre, i, s.params.max_iterations);
    let explained = reference_explain(&s.wcets, &periods, &priorities, &lines, i, &s.params);
    assert_eq!(got.result, plain, "task {i} of {s:?}: result differs from the plain recurrence");
    assert_eq!(got, explained, "task {i} of {s:?}: breakdown differs from the explain loop");
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every task of a random system gets an identical `WcrtResult`
    /// and identical cost terms from the one loop and the references.
    #[test]
    fn fixpoint_matches_the_parent_loops(s in arb_system()) {
        for i in 0..s.tasks.len() {
            check_task(&s, i);
        }
    }
}

/// The generator reaches every stop reason often, including the
/// converged-above-deadline case (a top-priority task whose WCET exceeds
/// its period), so the property above exercises each branch of the
/// loop's stop test.
#[test]
fn reference_systems_cover_every_stop_reason() {
    let mut rng = TestRng::from_name("reference_systems_cover_every_stop_reason");
    let (mut converged, mut converged_late, mut missed, mut capped) = (0, 0, 0, 0);
    for _ in 0..512 {
        let s = arb_system().generate(&mut rng);
        for i in 0..s.tasks.len() {
            let b = check_task(&s, i);
            match b.result.stop {
                StopReason::Converged if b.result.cycles > s.tasks[i].period => converged_late += 1,
                StopReason::Converged => converged += 1,
                StopReason::DeadlineExceeded => missed += 1,
                StopReason::IterationCap => capped += 1,
            }
        }
    }
    for (what, count) in [
        ("converged", converged),
        ("converged above the deadline", converged_late),
        ("deadline exceeded", missed),
        ("iteration cap", capped),
    ] {
        assert!(count >= 20, "only {count} tasks stopped as {what}");
    }
}

/// An iterate past `u64::MAX` stops as `DeadlineExceeded` at
/// `u64::MAX`, even against the largest period a `u64` can state; below
/// the boundary the loop is exact.
#[test]
fn overflowing_iterates_miss_the_deadline() {
    let tasks =
        [TaskParams { period: 10, priority: 1 }, TaskParams { period: u64::MAX, priority: 2 }];
    let wcets = [5, 7];
    for (lines, params) in [
        (1, WcrtParams { miss_penalty: u64::MAX, ctx_switch: 0, max_iterations: 100 }),
        (0, WcrtParams { miss_penalty: 20, ctx_switch: u64::MAX, max_iterations: 100 }),
        (0, WcrtParams { miss_penalty: 20, ctx_switch: u64::MAX / 2, max_iterations: 100 }),
    ] {
        let b = crpd::fixpoint(&wcets, &tasks, |_, _| lines, 1, &params, None);
        assert_eq!(b.result.cycles, u64::MAX, "{params:?}");
        assert_eq!(b.result.stop, StopReason::DeadlineExceeded, "{params:?}");
        assert!(!b.result.schedulable);
        assert_eq!((b.wcet, b.interference, b.preemptions), (7, 5, 1));
    }
    // 2·Ccs one cycle short of the boundary: exact, and the
    // higher-priority task is untouched either way.
    let ccs = (u64::MAX - 7 - 5 - 1) / 2;
    let params = WcrtParams { miss_penalty: 20, ctx_switch: ccs, max_iterations: 1 };
    let b = crpd::fixpoint(&wcets, &tasks, |_, _| 0, 1, &params, None);
    assert_eq!(b.result.cycles, 7 + 5 + 2 * ccs);
    assert_eq!(b.result.stop, StopReason::IterationCap);
    let hi = crpd::fixpoint(&wcets, &tasks, |_, _| 0, 0, &params, None);
    assert_eq!((hi.result.cycles, hi.result.stop), (5, StopReason::Converged));
}

//! Worst Case Response Time analysis (paper §VII, Eq. 6/7).

use std::borrow::Borrow;
use std::fmt;

use crate::approaches::CrpdMatrix;
use crate::task::AnalyzedTask;

/// Cost parameters of the WCRT recurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WcrtParams {
    /// Cache miss penalty in cycles (`Cmiss`, Eq. 5).
    pub miss_penalty: u64,
    /// Context switch WCET in cycles (`Ccs`, charged twice per preemption
    /// in Eq. 7).
    pub ctx_switch: u64,
    /// Iteration cap (guards against pathological non-convergence).
    pub max_iterations: u32,
}

impl Default for WcrtParams {
    fn default() -> Self {
        WcrtParams { miss_penalty: 20, ctx_switch: 0, max_iterations: 10_000 }
    }
}

/// Why the Eq. 7 iteration stopped. `DeadlineExceeded` and
/// `IterationCap` both yield `schedulable == false` but mean different
/// things: the first is a divergence proof against the deadline, the
/// second only says the recurrence did not settle within the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The recurrence reached a fixed point (`R^{k+1} == R^k`).
    Converged,
    /// An iterate exceeded the deadline; the response time is unbounded
    /// for scheduling purposes.
    DeadlineExceeded,
    /// `max_iterations` was reached before convergence; the reported
    /// value is a lower bound on the true fixed point.
    IterationCap,
}

impl StopReason {
    /// Short human-readable form used in reports.
    pub fn label(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::DeadlineExceeded => "deadline exceeded",
            StopReason::IterationCap => "iteration cap",
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Outcome of the response-time iteration for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WcrtResult {
    /// The fixed point, or the first value past the deadline if the
    /// iteration diverged.
    pub cycles: u64,
    /// `true` when `cycles` converged at or below the deadline.
    pub schedulable: bool,
    /// Number of recurrence iterations performed.
    pub iterations: u32,
    /// Why the iteration stopped.
    pub stop: StopReason,
}

impl fmt::Display for WcrtResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "R={} ({}, {} iterations, {})",
            self.cycles,
            if self.schedulable { "schedulable" } else { "NOT schedulable" },
            self.iterations,
            self.stop
        )
    }
}

/// Per-preemption cost imposed on task `i` by one preemption of task `j`:
/// `Cpre(Ti, Tj) + 2·Ccs` (Eq. 5 and Eq. 7).
fn preemption_cost(matrix: &CrpdMatrix, i: usize, j: usize, params: &WcrtParams) -> u64 {
    matrix.reload(i, j) as u64 * params.miss_penalty + 2 * params.ctx_switch
}

/// Runs the Eq. 7 recurrence for task `i` of `tasks`:
///
/// ```text
/// R_i^{k+1} = C_i + Σ_{j ∈ hp(i)} ⌈R_i^k / P_j⌉ · (C_j + Cpre(T_i, T_j) + 2·Ccs)
/// ```
///
/// iterating from `R_i^0 = C_i` until the value converges or exceeds the
/// deadline (= period). Setting every matrix cell to zero and
/// `ctx_switch = 0` recovers the classic cache-oblivious Eq. 6.
///
/// Like [`CrpdMatrix::compute`], `tasks` may be any slice of task-like
/// values (`&[AnalyzedTask]`, `&[Arc<AnalyzedTask>]`, …).
///
/// # Panics
///
/// Panics if `i` is out of range or two tasks share a priority level
/// (fixed-priority analysis requires a total order).
pub fn response_time<T: Borrow<AnalyzedTask>>(
    tasks: &[T],
    matrix: &CrpdMatrix,
    i: usize,
    params: &WcrtParams,
) -> WcrtResult {
    let _span = rtobs::span_labeled("wcrt", || format!("{} task{i}", matrix.approach));
    let wcets: Vec<u64> = tasks.iter().map(|t| t.borrow().wcet()).collect();
    let periods: Vec<u64> = tasks.iter().map(|t| t.borrow().params().period).collect();
    let priorities: Vec<u32> = tasks.iter().map(|t| t.borrow().params().priority).collect();
    run_recurrence(
        &wcets,
        &periods,
        &priorities,
        &|i, j| preemption_cost(matrix, i, j, params),
        i,
        params.max_iterations,
        matrix.approach.label(),
    )
}

/// The raw Eq. 7 recurrence over explicit task vectors: `wcets`,
/// `periods` (deadlines equal periods) and `priorities`, with an
/// arbitrary per-preemption cost function `cpre(i, j)` in cycles (which
/// should include context-switch charges). Exposed so analyses with
/// their own cost function — way-partitioning in
/// [`crate::partition::partitioned_analyze_all`] and the fuzz farm's
/// reference fixpoint — reuse the exact iteration semantics.
///
/// # Panics
///
/// Panics if the vectors disagree in length, `i` is out of range, or two
/// tasks share a priority level.
pub fn response_time_generic(
    wcets: &[u64],
    periods: &[u64],
    priorities: &[u32],
    cpre: &dyn Fn(usize, usize) -> u64,
    i: usize,
    max_iterations: u32,
) -> WcrtResult {
    run_recurrence(wcets, periods, priorities, cpre, i, max_iterations, "generic")
}

/// The shared Eq. 7 loop. `context` labels the per-iteration `R_i^k`
/// trail recorded into an installed `rtobs` recorder (recording is
/// write-only: the iterates are never read back, so an installed
/// recorder cannot change the result).
fn run_recurrence(
    wcets: &[u64],
    periods: &[u64],
    priorities: &[u32],
    cpre: &dyn Fn(usize, usize) -> u64,
    i: usize,
    max_iterations: u32,
    context: &str,
) -> WcrtResult {
    assert_eq!(wcets.len(), periods.len());
    assert_eq!(wcets.len(), priorities.len());
    let hp: Vec<usize> = (0..wcets.len()).filter(|j| priorities[*j] < priorities[i]).collect();
    for j in 0..wcets.len() {
        assert!(j == i || priorities[j] != priorities[i], "duplicate priorities are not supported");
    }
    let recording = rtobs::enabled();
    let mut iterates: Vec<u64> = Vec::new();
    let deadline = periods[i];
    let mut r = wcets[i];
    if recording {
        iterates.push(r); // R_i^0 = C_i
    }
    let mut iterations = 0;
    let result = loop {
        iterations += 1;
        let interference: u64 =
            hp.iter().map(|&j| r.div_ceil(periods[j]) * (wcets[j] + cpre(i, j))).sum();
        let next = wcets[i] + interference;
        if recording && next != r {
            iterates.push(next);
        }
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
    };
    if recording {
        rtobs::record_wcrt_iterations(context, i, &iterates);
    }
    result
}

/// Response times for every task (the highest-priority task's WCRT is its
/// WCET — it is never preempted).
///
/// Per-task recurrences are independent, so they fan out over the current
/// [`rtpar`] pool; results come back in task order, so the output is
/// byte-identical at any thread count.
pub fn analyze_all<T: Borrow<AnalyzedTask> + Sync>(
    tasks: &[T],
    matrix: &CrpdMatrix,
    params: &WcrtParams,
) -> Vec<WcrtResult> {
    rtpar::par_map_range(tasks.len(), |i| response_time(tasks, matrix, i, params))
}

/// The reported `R_i` of one task split into the Eq. 7 cost terms, all
/// evaluated at the iterate that produced `result.cycles`, so that
///
/// ```text
/// result.cycles == wcet + interference + crpd + ctx_switch
/// ```
///
/// holds *exactly* — converged or not. Produced by
/// [`explain_response_time`] for the `--explain` report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WcrtBreakdown {
    /// The plain iteration outcome (identical to [`response_time`]).
    pub result: WcrtResult,
    /// `C_i`: the task's own WCET.
    pub wcet: u64,
    /// `Σ_j ⌈R/P_j⌉ · C_j`: higher-priority execution demand.
    pub interference: u64,
    /// `Σ_j ⌈R/P_j⌉ · Cpre(T_i, T_j)`: cache reload delay.
    pub crpd: u64,
    /// `Σ_j ⌈R/P_j⌉ · 2·Ccs`: context-switch overhead.
    pub ctx_switch: u64,
    /// `Σ_j ⌈R/P_j⌉`: worst-case preemption (activation) count.
    pub preemptions: u64,
}

/// Runs the same Eq. 7 recurrence as [`response_time`] but keeps the
/// final iterate's cost terms separated. The `result` field is always
/// identical to what [`response_time`] returns for the same inputs; the
/// component sums are a deterministic recomputation, not recorder state,
/// so `--explain` output is byte-stable with tracing on or off.
///
/// # Panics
///
/// As [`response_time`].
pub fn explain_response_time<T: Borrow<AnalyzedTask>>(
    tasks: &[T],
    matrix: &CrpdMatrix,
    i: usize,
    params: &WcrtParams,
) -> WcrtBreakdown {
    let wcets: Vec<u64> = tasks.iter().map(|t| t.borrow().wcet()).collect();
    let periods: Vec<u64> = tasks.iter().map(|t| t.borrow().params().period).collect();
    let priorities: Vec<u32> = tasks.iter().map(|t| t.borrow().params().priority).collect();
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
            crpd += activations * (matrix.reload(i, j) as u64 * params.miss_penalty);
            ctx_switch += activations * 2 * params.ctx_switch;
        }
        let next = wcets[i] + interference + crpd + ctx_switch;
        // Mirror `run_recurrence` exactly: on convergence `next == r`, on
        // overrun/cap `next` is the reported value — either way the
        // components above were computed for the value we return.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approaches::{CrpdApproach, CrpdMatrix};
    use crate::task::TaskParams;
    use rtcache::CacheGeometry;
    use rtwcet::TimingModel;

    /// Builds a tiny analyzed task with a synthetic WCET by scaling a nop
    /// program — WCRT unit tests need exact arithmetic, so we build tasks
    /// whose WCETs we can read back.
    fn task(prio: u32, period: u64) -> AnalyzedTask {
        let p = rtworkloads::synthetic::synthetic_task(&{
            let mut s = rtworkloads::synthetic::SyntheticSpec::new(
                format!("t{prio}"),
                0x0001_0000 + 0x4000 * u64::from(prio),
                0x0010_0000 + 0x4800 * u64::from(prio),
            );
            s.two_paths = false;
            s.outer_iters = prio; // different sizes per priority
            s
        });
        AnalyzedTask::analyze(
            &p,
            TaskParams { period, priority: prio },
            CacheGeometry::paper_l1(),
            TimingModel::default(),
        )
        .unwrap()
    }

    fn zero_matrix(n: usize) -> CrpdMatrix {
        CrpdMatrix { approach: CrpdApproach::Combined, lines: vec![vec![0; n]; n] }
    }

    #[test]
    fn highest_priority_task_wcrt_is_wcet() {
        let tasks = vec![task(1, 1_000_000), task(2, 2_000_000)];
        let m = zero_matrix(2);
        let r = response_time(&tasks, &m, 0, &WcrtParams::default());
        assert_eq!(r.cycles, tasks[0].wcet());
        assert!(r.schedulable);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn eq6_hand_computed_fixed_point() {
        // Classic example: C1=?, with zero CRPD the recurrence matches the
        // hand-rolled iteration.
        let tasks = vec![task(1, 50_000), task(2, 1_000_000)];
        let m = zero_matrix(2);
        let r = response_time(&tasks, &m, 1, &WcrtParams::default());
        // Manually iterate.
        let (c1, p1, c2) = (tasks[0].wcet(), tasks[0].params().period, tasks[1].wcet());
        let mut manual = c2;
        loop {
            let next = c2 + manual.div_ceil(p1) * c1;
            if next == manual {
                break;
            }
            manual = next;
        }
        assert_eq!(r.cycles, manual);
        assert!(r.schedulable);
    }

    #[test]
    fn crpd_extends_response_time() {
        let tasks = vec![task(1, 50_000), task(2, 1_000_000)];
        let zero = zero_matrix(2);
        let mut with_crpd = zero_matrix(2);
        with_crpd.lines[1][0] = 100; // 100 lines reloaded per preemption
        let params = WcrtParams { miss_penalty: 20, ctx_switch: 0, max_iterations: 1000 };
        let r0 = response_time(&tasks, &zero, 1, &params);
        let r1 = response_time(&tasks, &with_crpd, 1, &params);
        assert!(r1.cycles > r0.cycles);
        // Exactly one preemption window difference per activation:
        let activations = r1.cycles.div_ceil(tasks[0].params().period);
        assert!(r1.cycles - r0.cycles >= activations * 100 * 20 / 2);
    }

    #[test]
    fn context_switch_charged_twice_per_preemption() {
        let tasks = vec![task(1, 100_000), task(2, 10_000_000)];
        let m = zero_matrix(2);
        let base = response_time(&tasks, &m, 1, &WcrtParams::default());
        let params = WcrtParams { miss_penalty: 20, ctx_switch: 500, max_iterations: 1000 };
        let with_cs = response_time(&tasks, &m, 1, &params);
        assert!(with_cs.cycles >= base.cycles + 2 * 500);
    }

    #[test]
    fn unschedulable_when_deadline_exceeded() {
        // Give the low task a period barely above its own WCET so the
        // interference pushes it over.
        let hi = task(1, 6_000);
        let lo_wcet = task(2, 1).wcet(); // probe the WCET
        let lo = task(2, lo_wcet + 10);
        let tasks = vec![hi, lo];
        let m = zero_matrix(2);
        let r = response_time(&tasks, &m, 1, &WcrtParams::default());
        assert!(!r.schedulable);
        assert!(r.cycles > tasks[1].params().period);
    }

    #[test]
    fn analyze_all_covers_every_task() {
        let tasks = vec![task(1, 100_000), task(2, 500_000), task(3, 2_000_000)];
        let m = CrpdMatrix::compute(CrpdApproach::Combined, &tasks);
        let results = analyze_all(&tasks, &m, &WcrtParams::default());
        assert_eq!(results.len(), 3);
        // Response times grow (weakly) with falling priority here because
        // lower-priority tasks absorb all higher-priority interference.
        assert!(results[2].cycles >= results[1].cycles);
        assert!(results[1].cycles >= results[0].cycles);
    }

    #[test]
    fn monotone_in_miss_penalty() {
        let tasks = vec![task(1, 100_000), task(2, 2_000_000)];
        let m = CrpdMatrix::compute(CrpdApproach::AllPreemptingLines, &tasks);
        let mut last = 0;
        for penalty in [10, 20, 30, 40] {
            let params =
                WcrtParams { miss_penalty: penalty, ctx_switch: 100, max_iterations: 1000 };
            let r = response_time(&tasks, &m, 1, &params);
            assert!(r.cycles >= last, "WCRT must grow with Cmiss");
            last = r.cycles;
        }
    }

    #[test]
    fn result_display() {
        let r = WcrtResult {
            cycles: 100,
            schedulable: true,
            iterations: 3,
            stop: StopReason::Converged,
        };
        assert_eq!(r.to_string(), "R=100 (schedulable, 3 iterations, converged)");
        let r = WcrtResult {
            cycles: 100,
            schedulable: false,
            iterations: 3,
            stop: StopReason::IterationCap,
        };
        assert!(r.to_string().contains("NOT schedulable"));
        assert!(r.to_string().contains("iteration cap"));
    }

    #[test]
    fn stop_reason_distinguishes_deadline_from_cap() {
        let tasks = vec![task(1, 6_000), task(2, 1_000_000)];
        let m = zero_matrix(2);
        // Plenty of budget: either converges or provably misses.
        let converged = response_time(&tasks, &m, 1, &WcrtParams::default());
        assert_eq!(converged.stop, StopReason::Converged);
        assert!(converged.schedulable);
        // One-iteration budget: the recurrence cannot settle.
        let params = WcrtParams { miss_penalty: 20, ctx_switch: 0, max_iterations: 1 };
        let capped = response_time(&tasks, &m, 1, &params);
        assert_eq!(capped.stop, StopReason::IterationCap);
        assert!(!capped.schedulable);
        // A deadline barely above the WCET: divergence past the deadline.
        let lo_wcet = tasks[1].wcet();
        let tight = vec![task(1, 6_000), task(2, lo_wcet + 10)];
        let missed = response_time(&tight, &m, 1, &WcrtParams::default());
        assert_eq!(missed.stop, StopReason::DeadlineExceeded);
        assert!(!missed.schedulable);
    }

    #[test]
    fn breakdown_components_sum_to_the_reported_wcrt() {
        let tasks = vec![task(1, 50_000), task(2, 500_000), task(3, 2_000_000)];
        for approach in CrpdApproach::ALL {
            let m = CrpdMatrix::compute(approach, &tasks);
            let params = WcrtParams { miss_penalty: 20, ctx_switch: 50, max_iterations: 10_000 };
            for i in 0..tasks.len() {
                let plain = response_time(&tasks, &m, i, &params);
                let b = explain_response_time(&tasks, &m, i, &params);
                assert_eq!(b.result, plain, "{approach} task {i}: breakdown must agree");
                assert_eq!(
                    b.wcet + b.interference + b.crpd + b.ctx_switch,
                    plain.cycles,
                    "{approach} task {i}: components must sum to R_i"
                );
            }
        }
    }

    #[test]
    fn breakdown_agrees_even_when_unschedulable() {
        let lo_wcet = task(2, 1).wcet();
        let tasks = vec![task(1, 6_000), task(2, lo_wcet + 10)];
        let m = zero_matrix(2);
        let b = explain_response_time(&tasks, &m, 1, &WcrtParams::default());
        let plain = response_time(&tasks, &m, 1, &WcrtParams::default());
        assert_eq!(b.result, plain);
        assert_eq!(b.result.stop, StopReason::DeadlineExceeded);
        assert_eq!(b.wcet + b.interference + b.crpd + b.ctx_switch, plain.cycles);
    }

    #[test]
    fn recurrence_iterates_are_recorded_and_do_not_perturb() {
        let _serial = crate::obs_test_lock();
        let tasks = vec![task(1, 50_000), task(2, 1_000_000)];
        // InterTask: no other test in this binary records under "App. 2",
        // so a concurrently-running test cannot overwrite the key while
        // our session has recording enabled.
        let m = CrpdMatrix::compute(CrpdApproach::InterTask, &tasks);
        let plain = response_time(&tasks, &m, 1, &WcrtParams::default());
        let session = rtobs::begin();
        let traced = response_time(&tasks, &m, 1, &WcrtParams::default());
        let counters = session.recorder().counters();
        drop(session);
        assert_eq!(traced, plain, "an installed recorder must not change the result");
        let iterates = counters
            .wcrt_iterations
            .get(&("App. 2".to_string(), 1))
            .expect("iterates recorded under the approach label");
        assert_eq!(*iterates.first().unwrap(), tasks[1].wcet(), "trail starts at R^0 = C_i");
        assert_eq!(*iterates.last().unwrap(), plain.cycles, "trail ends at the fixed point");
    }
}

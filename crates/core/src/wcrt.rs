//! Worst Case Response Time analysis (paper §VII, Eq. 6/7).

use std::borrow::Borrow;
use std::fmt;

use crate::approaches::CrpdMatrix;
use crate::task::{AnalyzedTask, TaskParams};

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

/// The outcome of the Eq. 7 loop for one task: the [`WcrtResult`] plus
/// the cost terms of the iterate that produced `result.cycles`, so that
///
/// ```text
/// result.cycles == wcet + interference + crpd + ctx_switch
/// ```
///
/// holds *exactly* — converged or not — unless the iterate overflowed:
/// then `result.cycles` is `u64::MAX` and each term is capped there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WcrtBreakdown {
    /// The iteration outcome.
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

/// The Eq. 7 loop — the one place the recurrence is written:
///
/// ```text
/// R_i^{k+1} = C_i + Σ_{j ∈ hp(i)} ⌈R_i^k / P_j⌉ · (C_j + Cpre(T_i, T_j) + 2·Ccs)
/// ```
///
/// for task `i` of a system given as its WCETs and scheduling
/// parameters (deadline = period). `reload_lines(i, j)` is the number of
/// lines `T_i` reloads after one preemption by `T_j`; the loop prices
/// them at `params.miss_penalty` (Eq. 5) and charges `2·params.ctx_switch`
/// per preemption. Zero reload lines and `ctx_switch = 0` recover the
/// classic cache-oblivious Eq. 6.
///
/// Iterates from `R_i^0 = C_i` until the value converges, exceeds the
/// deadline or has run `params.max_iterations` times. The arithmetic
/// saturates: an iterate that reaches `u64::MAX` is past every deadline
/// and stops as [`StopReason::DeadlineExceeded`].
///
/// With `trail = Some(label)` and an `rtobs` recorder installed, the
/// `R_i^k` iterates are recorded under `(label, i)`. Recording is
/// write-only, so it cannot change the result.
///
/// # Panics
///
/// Panics if `wcets` and `tasks` differ in length, `i` is out of range,
/// two tasks share a priority level (fixed-priority analysis requires a
/// total order) or a higher-priority period is zero.
pub fn fixpoint(
    wcets: &[u64],
    tasks: &[TaskParams],
    reload_lines: impl Fn(usize, usize) -> u64,
    i: usize,
    params: &WcrtParams,
    trail: Option<&str>,
) -> WcrtBreakdown {
    assert_eq!(wcets.len(), tasks.len(), "one WCET per task");
    let priority = tasks[i].priority;
    assert!(
        tasks.iter().enumerate().all(|(j, t)| j == i || t.priority != priority),
        "duplicate priorities are not supported"
    );
    // Each higher-priority task as `(P_j, C_j, Cpre(T_i, T_j))`.
    let hp: Vec<(u64, u64, u64)> = (0..tasks.len())
        .filter(|&j| tasks[j].priority < priority)
        .map(|j| {
            (tasks[j].period, wcets[j], reload_lines(i, j).saturating_mul(params.miss_penalty))
        })
        .collect();
    let ctx_per_preemption = params.ctx_switch.saturating_mul(2);
    // Keep the trail only when a recorder is installed to receive it.
    let trail = trail.filter(|_| rtobs::enabled());
    let mut iterates: Vec<u64> = Vec::new();
    let deadline = tasks[i].period;
    let mut r = wcets[i];
    if trail.is_some() {
        iterates.push(r); // R_i^0 = C_i
    }
    let mut iterations = 0;
    let breakdown = loop {
        iterations += 1;
        let (mut interference, mut crpd, mut preemptions) = (0u64, 0u64, 0u64);
        for &(period, wcet, cpre) in &hp {
            let activations = r.div_ceil(period);
            preemptions = preemptions.saturating_add(activations);
            interference = interference.saturating_add(activations.saturating_mul(wcet));
            crpd = crpd.saturating_add(activations.saturating_mul(cpre));
        }
        let ctx_switch = preemptions.saturating_mul(ctx_per_preemption);
        let next =
            wcets[i].saturating_add(interference).saturating_add(crpd).saturating_add(ctx_switch);
        if trail.is_some() && next != r {
            iterates.push(next);
        }
        let saturated = next == u64::MAX;
        let stop = if next == r && !saturated {
            StopReason::Converged
        } else if next > deadline || saturated {
            StopReason::DeadlineExceeded
        } else if iterations >= params.max_iterations {
            StopReason::IterationCap
        } else {
            r = next;
            continue;
        };
        let schedulable = stop == StopReason::Converged && next <= deadline;
        break WcrtBreakdown {
            result: WcrtResult { cycles: next, schedulable, iterations, stop },
            wcet: wcets[i],
            interference,
            crpd,
            ctx_switch,
            preemptions,
        };
    };
    if let Some(label) = trail {
        rtobs::record_wcrt_iterations(label, i, &iterates);
    }
    breakdown
}

/// The Eq. 7 inputs of analyzed `tasks`: their WCETs and scheduling
/// parameters, in task order.
fn eq7_inputs<T: Borrow<AnalyzedTask>>(tasks: &[T]) -> (Vec<u64>, Vec<TaskParams>) {
    tasks.iter().map(Borrow::borrow).map(|t| (t.wcet(), t.params().clone())).unzip()
}

/// [`fixpoint`] for task `i`, reloading the lines `matrix` bounds.
/// `traced` opens the task's `wcrt` span and records the iterates under
/// the approach label.
fn matrix_fixpoint(
    wcets: &[u64],
    task_params: &[TaskParams],
    matrix: &CrpdMatrix,
    i: usize,
    params: &WcrtParams,
    traced: bool,
) -> WcrtBreakdown {
    let _span =
        traced.then(|| rtobs::span_labeled("wcrt", || format!("{} task{i}", matrix.approach)));
    let trail = traced.then(|| matrix.approach.label());
    fixpoint(wcets, task_params, |i, j| matrix.reload(i, j) as u64, i, params, trail)
}

/// Runs the Eq. 7 recurrence ([`fixpoint`]) for task `i` of `tasks`
/// with the preemption costs `matrix` bounds, recording the iterates
/// under the approach label.
///
/// Like [`CrpdMatrix::compute`], `tasks` may be any slice of task-like
/// values (`&[AnalyzedTask]`, `&[Arc<AnalyzedTask>]`, …).
///
/// # Panics
///
/// As [`fixpoint`].
pub fn response_time<T: Borrow<AnalyzedTask>>(
    tasks: &[T],
    matrix: &CrpdMatrix,
    i: usize,
    params: &WcrtParams,
) -> WcrtResult {
    let (wcets, task_params) = eq7_inputs(tasks);
    matrix_fixpoint(&wcets, &task_params, matrix, i, params, true).result
}

/// Response times for every task (the highest-priority task's WCRT is its
/// WCET — it is never preempted); entry `i` equals
/// [`response_time`]`(tasks, matrix, i, params)`.
///
/// The WCETs and parameters are collected once, and the per-task
/// recurrences run in task order on the calling thread: each is a few
/// iterations of arithmetic, cheaper than a fan-out batch.
pub fn analyze_all<T: Borrow<AnalyzedTask>>(
    tasks: &[T],
    matrix: &CrpdMatrix,
    params: &WcrtParams,
) -> Vec<WcrtResult> {
    let (wcets, task_params) = eq7_inputs(tasks);
    (0..tasks.len())
        .map(|i| matrix_fixpoint(&wcets, &task_params, matrix, i, params, true).result)
        .collect()
}

/// [`response_time`] with the reported iterate's cost terms kept, for
/// the `--explain` report. Its `result` is always identical to what
/// [`response_time`] returns for the same inputs. It opens no span and
/// records no iterates, so explaining leaves a recorder as the analysis
/// left it.
///
/// # Panics
///
/// As [`fixpoint`].
pub fn explain_response_time<T: Borrow<AnalyzedTask>>(
    tasks: &[T],
    matrix: &CrpdMatrix,
    i: usize,
    params: &WcrtParams,
) -> WcrtBreakdown {
    let (wcets, task_params) = eq7_inputs(tasks);
    matrix_fixpoint(&wcets, &task_params, matrix, i, params, false)
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
        assert_eq!(analyze_all(&tasks, &m, &params)[1], capped);
        // A deadline barely above the WCET: divergence past the deadline.
        let lo_wcet = tasks[1].wcet();
        let tight = vec![task(1, 6_000), task(2, lo_wcet + 10)];
        let missed = response_time(&tight, &m, 1, &WcrtParams::default());
        assert_eq!(missed.stop, StopReason::DeadlineExceeded);
        assert!(!missed.schedulable);
        assert_eq!(analyze_all(&tight, &m, &WcrtParams::default())[1], missed);
    }

    #[test]
    fn breakdown_components_sum_to_the_reported_wcrt() {
        let tasks = vec![task(1, 50_000), task(2, 500_000), task(3, 2_000_000)];
        for approach in CrpdApproach::ALL {
            let m = CrpdMatrix::compute(approach, &tasks);
            let params = WcrtParams { miss_penalty: 20, ctx_switch: 50, max_iterations: 10_000 };
            for (i, all) in analyze_all(&tasks, &m, &params).into_iter().enumerate() {
                let plain = response_time(&tasks, &m, i, &params);
                let b = explain_response_time(&tasks, &m, i, &params);
                assert_eq!(b.result, plain, "{approach} task {i}: breakdown must agree");
                assert_eq!(all, plain, "{approach} task {i}: analyze_all must agree");
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
        let tasks = vec![task(1, 50_000), task(2, 1_000_000)];
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

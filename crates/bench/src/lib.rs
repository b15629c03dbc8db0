//! Reproduction harness for every table and figure of Tan & Mooney
//! (DATE 2004).
//!
//! The paper's absolute numbers come from an ARM9 testbed; this harness
//! rebuilds each experiment on the TRISC substrate, keeping the *shape*
//! of the evaluation: the same task sets, the same priority order, the
//! paper's WCET/period utilization ratios (periods are derived from our
//! measured WCETs at the reference miss penalty), the same four CRPD
//! approaches and the same `Cmiss` sweep.
//!
//! See `EXPERIMENTS.md` at the repository root for paper-vs-measured
//! values produced by the `repro` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tables;

use crpd::{AnalyzedTask, CrpdApproach, CrpdMatrix, TaskParams, WcrtParams, WcrtResult};
use rtcache::CacheGeometry;
use rtprogram::Program;
use rtsched::{simulate, CacheMode, SchedConfig, SchedTask, VariantPolicy};
use rtwcet::{estimate_wcet, TimingModel};

/// Reference miss penalty for reported WCETs (paper Example 6).
pub const REFERENCE_CMISS: u64 = 20;
/// Miss penalty at which periods are derived. Unlike the paper, our WCETs
/// grow with `Cmiss` (the paper holds the measured WCET fixed and sweeps
/// only the CRPD term), so periods are fixed at the top of the sweep to
/// keep the base utilization below one for every swept penalty.
pub const PERIOD_CMISS: u64 = 40;
/// The miss-penalty sweep of Tables III–VI.
pub const CMISS_SWEEP: [u64; 4] = [10, 20, 30, 40];

/// A task slot in an experiment: its program plus the paper's published
/// WCET/period (µs) used to derive a period with the same utilization.
#[derive(Debug, Clone)]
pub struct SpecTask {
    /// The task program.
    pub program: Program,
    /// The paper's WCET in µs (Table I).
    pub paper_wcet_us: f64,
    /// The paper's period in µs (Table I).
    pub paper_period_us: f64,
    /// Priority (smaller = higher), as in Table I.
    pub priority: u32,
}

/// One of the paper's two experiments, ready to build.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// `"Experiment I"` or `"Experiment II"`.
    pub name: &'static str,
    /// Tasks in priority order (highest first).
    pub tasks: Vec<SpecTask>,
}

/// Experiment I: MR, ED, OFDM (paper Table I, left).
pub fn experiment1_spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "Experiment I",
        tasks: vec![
            SpecTask {
                program: rtworkloads::mobile_robot(),
                paper_wcet_us: 830.0,
                paper_period_us: 3_500.0,
                priority: 2,
            },
            SpecTask {
                program: rtworkloads::edge_detection(),
                paper_wcet_us: 1_392.0,
                paper_period_us: 6_500.0,
                priority: 3,
            },
            SpecTask {
                program: rtworkloads::ofdm_transmitter(),
                paper_wcet_us: 2_830.0,
                paper_period_us: 40_000.0,
                priority: 4,
            },
        ],
    }
}

/// Experiment II: IDCT, ADPCMD, ADPCMC (paper Table I, right).
pub fn experiment2_spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "Experiment II",
        tasks: vec![
            SpecTask {
                program: rtworkloads::idct(),
                paper_wcet_us: 1_580.0,
                paper_period_us: 4_500.0,
                priority: 2,
            },
            SpecTask {
                program: rtworkloads::adpcm_decoder(),
                paper_wcet_us: 2_839.0,
                paper_period_us: 10_000.0,
                priority: 3,
            },
            SpecTask {
                program: rtworkloads::adpcm_encoder(),
                paper_wcet_us: 7_675.0,
                paper_period_us: 50_000.0,
                priority: 4,
            },
        ],
    }
}

/// A built experiment: programs, fixed periods (derived at the reference
/// miss penalty so the paper's utilizations hold), priorities and the
/// analyzed tasks at the reference model.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Experiment name.
    pub name: String,
    /// Cache geometry under analysis.
    pub geometry: CacheGeometry,
    /// Programs in priority order.
    pub programs: Vec<Program>,
    /// Derived periods in cycles.
    pub periods: Vec<u64>,
    /// Priorities (Table I).
    pub priorities: Vec<u32>,
    /// Analyzed tasks at the reference miss penalty.
    pub reference: Vec<AnalyzedTask>,
}

impl Experiment {
    /// Builds an experiment: estimates each task's WCET at the reference
    /// miss penalty and derives its period to match the paper's
    /// utilization.
    ///
    /// # Panics
    ///
    /// Panics if a workload program fails to analyze (they are validated
    /// by their own test suites).
    pub fn build(spec: &ExperimentSpec, geometry: CacheGeometry) -> Experiment {
        let model = TimingModel::with_miss_penalty(REFERENCE_CMISS);
        let period_model = TimingModel::with_miss_penalty(PERIOD_CMISS);
        // The period-deriving WCET probes are independent per task.
        let periods = rtpar::par_map(&spec.tasks, |t| {
            let wcet = estimate_wcet(&t.program, geometry, period_model)
                .expect("workload programs analyze cleanly")
                .cycles;
            (wcet as f64 * t.paper_period_us / t.paper_wcet_us).round() as u64
        });
        let programs: Vec<Program> = spec.tasks.iter().map(|t| t.program.clone()).collect();
        let priorities: Vec<u32> = spec.tasks.iter().map(|t| t.priority).collect();
        let reference = analyze_tasks(&programs, &periods, &priorities, geometry, model);
        Experiment {
            name: spec.name.to_string(),
            geometry,
            programs,
            periods,
            priorities,
            reference,
        }
    }

    /// Re-analyzes the tasks under a different miss penalty (periods stay
    /// fixed, as in the paper's Cmiss sweep).
    pub fn analyzed_with(&self, model: TimingModel) -> Vec<AnalyzedTask> {
        analyze_tasks(&self.programs, &self.periods, &self.priorities, self.geometry, model)
    }

    /// The context-switch WCET (`Ccs`) under `model` (paper Example 6).
    pub fn ctx_switch_cost(&self, model: TimingModel) -> u64 {
        estimate_wcet(&rtworkloads::context_switch(), self.geometry, model)
            .expect("context switch routine analyzes cleanly")
            .cycles
    }

    /// WCRT estimates of every task under one approach and miss penalty.
    pub fn wcrt(&self, approach: CrpdApproach, miss_penalty: u64) -> Vec<WcrtResult> {
        let model = TimingModel::with_miss_penalty(miss_penalty);
        let tasks = self.analyzed_with(model);
        let matrix = CrpdMatrix::compute(approach, &tasks);
        let params = WcrtParams {
            miss_penalty,
            ctx_switch: self.ctx_switch_cost(model),
            ..WcrtParams::default()
        };
        crpd::analyze_all(&tasks, &matrix, &params)
    }

    /// Measured actual response times (ART) per task from the scheduler
    /// co-simulation, run for `horizon_periods` periods of the
    /// lowest-priority task with every job on its worst-case path.
    pub fn measured_art(&self, miss_penalty: u64, horizon_periods: u64) -> Vec<u64> {
        let model = TimingModel::with_miss_penalty(miss_penalty);
        let sched_tasks: Vec<SchedTask> = self
            .programs
            .iter()
            .zip(&self.periods)
            .zip(&self.priorities)
            .map(|((p, period), prio)| SchedTask::new(p.clone(), *period, *prio))
            .collect();
        let horizon = self.periods.iter().max().copied().unwrap_or(1) * horizon_periods;
        let config = SchedConfig {
            geometry: self.geometry,
            model,
            ctx_switch: self.ctx_switch_cost(model),
            horizon,
            variant_policy: VariantPolicy::Worst,
            cache_mode: CacheMode::Shared,
            replacement: Default::default(),
            l2: None,
        };
        let report = simulate(&sched_tasks, &config).expect("experiment simulates cleanly");
        report.tasks.iter().map(|t| t.max_response).collect()
    }
}

fn analyze_tasks(
    programs: &[Program],
    periods: &[u64],
    priorities: &[u32],
    geometry: CacheGeometry,
    model: TimingModel,
) -> Vec<AnalyzedTask> {
    // Per-task analyses are independent; fan out over the current rtpar
    // pool. Results come back in task order, so sweeps stay deterministic.
    rtpar::par_map_range(programs.len(), |i| {
        AnalyzedTask::analyze(
            &programs[i],
            TaskParams { period: periods[i], priority: priorities[i] },
            geometry,
            model,
        )
        .expect("workload programs analyze cleanly")
    })
}

/// Improvement of approach 4 over another approach, in percent
/// (`(other - combined) / other`), the metric of Tables IV/VI.
pub fn improvement_percent(other: u64, combined: u64) -> f64 {
    if other == 0 {
        0.0
    } else {
        100.0 * (other.saturating_sub(combined)) as f64 / other as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down Experiment I used by tests (small image / few FFT
    /// points keep simulation quick).
    pub(crate) fn tiny_experiment() -> Experiment {
        let spec = ExperimentSpec {
            name: "tiny",
            tasks: vec![
                SpecTask {
                    program: rtworkloads::mobile_robot(),
                    paper_wcet_us: 830.0,
                    paper_period_us: 3_500.0,
                    priority: 2,
                },
                SpecTask {
                    program: rtworkloads::edge_detection_with_dim(10),
                    paper_wcet_us: 1_392.0,
                    paper_period_us: 6_500.0,
                    priority: 3,
                },
                SpecTask {
                    program: rtworkloads::ofdm_transmitter_with_points(16),
                    paper_wcet_us: 2_830.0,
                    paper_period_us: 40_000.0,
                    priority: 4,
                },
            ],
        };
        Experiment::build(&spec, CacheGeometry::paper_l1())
    }

    #[test]
    fn periods_match_paper_utilizations() {
        let e = tiny_experiment();
        // U_i = C_i(PERIOD_CMISS) / P_i must match the paper's ratios to
        // rounding (periods are derived at the top of the Cmiss sweep).
        let paper_u = [830.0 / 3500.0, 1392.0 / 6500.0, 2830.0 / 40000.0];
        let at_top = e.analyzed_with(TimingModel::with_miss_penalty(PERIOD_CMISS));
        for (i, t) in at_top.iter().enumerate() {
            let u = t.wcet() as f64 / e.periods[i] as f64;
            assert!((u - paper_u[i]).abs() < 0.01, "task {i}: u={u} vs {}", paper_u[i]);
        }
        // At smaller penalties the utilization can only be lower.
        for (i, t) in e.reference.iter().enumerate() {
            assert!(t.wcet() <= at_top[i].wcet());
        }
    }

    #[test]
    fn wcrt_ordering_between_approaches() {
        let e = tiny_experiment();
        // The OFDM-analog is index 2 (lowest priority).
        let r1 = e.wcrt(CrpdApproach::AllPreemptingLines, 20)[2].cycles;
        let r2 = e.wcrt(CrpdApproach::InterTask, 20)[2].cycles;
        let r3 = e.wcrt(CrpdApproach::UsefulBlocks, 20)[2].cycles;
        let r4 = e.wcrt(CrpdApproach::Combined, 20)[2].cycles;
        assert!(r4 <= r2, "App.4 ({r4}) must be at most App.2 ({r2})");
        assert!(r4 <= r3, "App.4 ({r4}) must be at most App.3 ({r3})");
        assert!(r4 <= r1, "App.4 ({r4}) must be at most App.1 ({r1})");
    }

    #[test]
    fn art_below_all_wcrt_estimates() {
        let e = tiny_experiment();
        let art = e.measured_art(20, 2);
        for approach in CrpdApproach::ALL {
            let wcrt = e.wcrt(approach, 20);
            for i in 0..art.len() {
                if wcrt[i].schedulable {
                    assert!(
                        art[i] <= wcrt[i].cycles,
                        "{}: task {i} ART {} > {} WCRT {}",
                        e.name,
                        art[i],
                        approach,
                        wcrt[i].cycles
                    );
                }
            }
        }
    }

    #[test]
    fn improvement_percent_math() {
        assert_eq!(improvement_percent(200, 100), 50.0);
        assert_eq!(improvement_percent(0, 100), 0.0);
        assert_eq!(improvement_percent(100, 100), 0.0);
        assert_eq!(improvement_percent(100, 150), 0.0, "saturates at zero");
    }
}

//! Preemptive fixed-priority scheduler co-simulation — the ground truth
//! the paper obtains from its Seamless CVE hardware/software setup
//! (Fig. 5): tasks run on the instruction-set simulator, share one L1
//! cache, preempt each other under fixed priorities, and the *Actual
//! Response Time* (ART) of every job is measured.
//!
//! # Model
//!
//! * All tasks are released together at time 0 (the critical instant of
//!   Example 1) and re-released every period.
//! * Execution is replayed from each task's pre-computed memory trace;
//!   every instruction costs `cpi` cycles plus `miss_penalty` per cache
//!   miss, and preemption happens at instruction boundaries.
//! * A context switch costs a constant `ctx_switch` cycles and is charged
//!   twice per preemption — once when switching to the preempting task
//!   and once when resuming the preempted one (paper Example 6 / Eq. 7).
//! * Per-preemption cache damage is recorded: how many of the preempted
//!   task's resident blocks were displaced while it was off the CPU.
//!
//! # Example
//!
//! ```
//! use rtsched::{SchedConfig, SchedTask, simulate, VariantPolicy};
//! use rtcache::CacheGeometry;
//! use rtwcet::TimingModel;
//!
//! # fn main() -> Result<(), rtsched::SimError> {
//! let tasks = vec![
//!     SchedTask::new(rtworkloads::mobile_robot(), 200_000, 2),
//!     SchedTask::new(rtworkloads::edge_detection_with_dim(8), 400_000, 3),
//! ];
//! let config = SchedConfig {
//!     geometry: CacheGeometry::paper_l1(),
//!     model: TimingModel::default(),
//!     ctx_switch: 400,
//!     horizon: 800_000,
//!     variant_policy: VariantPolicy::Worst,
//!     cache_mode: rtsched::CacheMode::Shared,
//!     replacement: Default::default(),
//!     l2: None,
//! };
//! let report = simulate(&tasks, &config)?;
//! assert_eq!(report.tasks.len(), 2);
//! assert!(report.tasks[1].max_response > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod timeline;

pub use timeline::render_timeline;

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use rtcache::{
    CacheGeometry, CacheHierarchy, CacheSim, LevelOutcome, MemoryBlock, ReplacementPolicy,
};
use rtprogram::sim::{trace_variant, AccessKind, MemoryAccess};
use rtprogram::{ExecError, Program};
use rtwcet::TimingModel;

/// An optional L2 behind the L1, for measurement only: no analysis in
/// this workspace bounds a two-level hierarchy (the paper leaves it to
/// future work, §IX), so an L2 run yields measured responses that any
/// future L2 bound must be checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// L2 geometry (same line size as the L1, at least as large).
    pub geometry: CacheGeometry,
    /// Cycles for an access satisfied by the L2; accesses that miss both
    /// levels cost the timing model's `miss_penalty`.
    pub penalty: u64,
}

/// Whether tasks contend for one cache or each gets its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// One L1 shared by every task — inter-task eviction happens (the
    /// paper's Fig. 1(B) reality).
    #[default]
    Shared,
    /// Each task keeps a private cache that survives preemptions — the
    /// counterfactual without inter-task eviction (Fig. 1(A)).
    Private,
}

/// Which input variant (feasible path) each released job executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariantPolicy {
    /// Every job runs the given variant index.
    Fixed(usize),
    /// Jobs cycle through the task's variants.
    RoundRobin,
    /// Every job runs the variant with the largest cold-cache cycle count
    /// (the WCET path).
    Worst,
}

/// A task as seen by the scheduler.
#[derive(Debug, Clone)]
pub struct SchedTask {
    /// The task's program.
    pub program: Program,
    /// Release period (= deadline) in cycles.
    pub period: u64,
    /// Fixed priority; smaller is higher.
    pub priority: u32,
}

impl SchedTask {
    /// Creates a task.
    pub fn new(program: Program, period: u64, priority: u32) -> Self {
        SchedTask { program, period, priority }
    }
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Cache geometry shared by all tasks.
    pub geometry: CacheGeometry,
    /// Instruction/miss timing.
    pub model: TimingModel,
    /// Constant context-switch cost in cycles (`Ccs`).
    pub ctx_switch: u64,
    /// Simulate until this time; jobs released before the horizon still
    /// run to completion.
    pub horizon: u64,
    /// Path selection per job.
    pub variant_policy: VariantPolicy,
    /// Shared or private caches (Fig. 1(B) vs Fig. 1(A)).
    pub cache_mode: CacheMode,
    /// Cache replacement policy (the analysis assumes LRU; other policies
    /// are for measurement ablations).
    pub replacement: ReplacementPolicy,
    /// Optional L2 cache level. `None` models the paper's single-level
    /// setup, the only one the analysis bounds; `Some` measures a
    /// two-level hierarchy that no analysis covers.
    pub l2: Option<L2Config>,
}

/// Per-task simulation results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskReport {
    /// Task name.
    pub name: String,
    /// Jobs released within the horizon.
    pub released: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Maximum observed response time (the ART of Tables III/V).
    pub max_response: u64,
    /// Mean response time over completed jobs.
    pub mean_response: u64,
    /// Jobs whose response exceeded the period.
    pub deadline_misses: u64,
    /// Times a job of this task was preempted.
    pub preemptions: u64,
}

/// One preemption's measured cache damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreemptionRecord {
    /// Index of the preempted task.
    pub preempted: usize,
    /// Index of the directly preempting task.
    pub preempting: usize,
    /// Preemption time.
    pub time: u64,
    /// Blocks of the preempted task resident at switch-out but displaced
    /// by the time it resumed (nested preemptions by even higher-priority
    /// tasks are attributed to the direct preemptor).
    pub evicted_lines: usize,
    /// Displaced blocks the preempted job subsequently missed on at a
    /// position where its isolated (unpreempted, cold-start) run would
    /// have hit — the paper's per-preemption cache reload overhead
    /// t1, t2, t3 of Fig. 1, in lines.
    pub reloaded_lines: usize,
}

/// A contiguous interval during which one task occupied the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSlice {
    /// Task index.
    pub task: usize,
    /// Slice start time.
    pub start: u64,
    /// Slice end time.
    pub end: u64,
}

/// The simulation outcome.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-task aggregates, in input order.
    pub tasks: Vec<TaskReport>,
    /// Per-preemption cache damage (capped at 100 000 records).
    pub preemptions: Vec<PreemptionRecord>,
    /// Execution timeline (capped at 100 000 slices).
    pub slices: Vec<ExecSlice>,
    /// Time at which the simulation finished.
    pub end_time: u64,
}

/// Errors from the co-simulation.
#[derive(Debug)]
pub enum SimError {
    /// No tasks supplied.
    NoTasks,
    /// Two tasks share a priority level.
    DuplicatePriority(u32),
    /// A variant index in [`VariantPolicy::Fixed`] is out of range.
    BadVariant {
        /// Offending task.
        task: String,
        /// The requested variant index.
        index: usize,
    },
    /// Tracing a task's program faulted.
    Exec {
        /// Offending task.
        task: String,
        /// The underlying fault.
        source: ExecError,
    },
    /// The L1/L2 pair was ill-formed.
    Hierarchy(rtcache::HierarchyError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoTasks => write!(f, "no tasks to simulate"),
            SimError::DuplicatePriority(p) => write!(f, "duplicate priority level {p}"),
            SimError::BadVariant { task, index } => {
                write!(f, "task `{task}` has no variant {index}")
            }
            SimError::Exec { task, source } => write!(f, "tracing task `{task}`: {source}"),
            SimError::Hierarchy(e) => write!(f, "cache hierarchy: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Exec { source, .. } => Some(source),
            SimError::Hierarchy(e) => Some(e),
            _ => None,
        }
    }
}

const RECORD_CAP: usize = 100_000;

/// One task's (or the shared) memory system: a bare L1 or an L1 + L2
/// hierarchy.
#[derive(Debug, Clone)]
enum MemorySystem {
    Single(CacheSim),
    Two(CacheHierarchy),
}

impl MemorySystem {
    fn build(config: &SchedConfig) -> Result<Self, SimError> {
        match config.l2 {
            None => {
                Ok(MemorySystem::Single(CacheSim::with_policy(config.geometry, config.replacement)))
            }
            Some(l2) => {
                CacheHierarchy::with_policy(config.geometry, l2.geometry, config.replacement)
                    .map(MemorySystem::Two)
                    .map_err(SimError::Hierarchy)
            }
        }
    }

    /// Accesses a block; returns the extra cycles beyond the base CPI and
    /// whether the access missed the L1.
    fn access_block(&mut self, block: MemoryBlock, config: &SchedConfig) -> (u64, bool) {
        match self {
            MemorySystem::Single(cache) => {
                if cache.access_block(block).is_miss() {
                    (config.model.miss_penalty, true)
                } else {
                    (0, false)
                }
            }
            MemorySystem::Two(h) => match h.access_block(block) {
                LevelOutcome::L1Hit => (0, false),
                LevelOutcome::L2Hit => (config.l2.expect("two-level config present").penalty, true),
                LevelOutcome::MemMiss => (config.model.miss_penalty, true),
            },
        }
    }

    /// `true` if the block is resident in the L1 (the level whose
    /// preemption damage the analysis bounds).
    fn is_resident_l1(&self, block: MemoryBlock) -> bool {
        match self {
            MemorySystem::Single(cache) => cache.is_resident(block),
            MemorySystem::Two(h) => h.l1().is_resident(block),
        }
    }
}

/// A released, possibly partially-executed job.
#[derive(Debug)]
struct Job {
    release: u64,
    variant: usize,
    /// Position in the task's trace (index of the next access to replay).
    pos: usize,
    /// Set when the job has been switched away from mid-execution.
    preempted_state: Option<PreemptedState>,
    /// Blocks displaced by past preemptions, mapped to the preemption
    /// record awaiting their reload accounting.
    lost: std::collections::BTreeMap<MemoryBlock, usize>,
    started: bool,
}

#[derive(Debug)]
struct PreemptedState {
    /// The preempted task's resident footprint blocks at switch-out.
    resident: BTreeSet<MemoryBlock>,
    /// Who preempted it.
    by: usize,
    /// When.
    at: u64,
}

/// Pre-traced task data.
struct TaskRuntime {
    traces: Vec<Vec<MemoryAccess>>,
    /// Per-variant, per-access hit/miss outcome of the isolated cold-start
    /// run (the reference for counting preemption-induced reloads).
    isolated_hits: Vec<Vec<bool>>,
    /// Distinct blocks per variant (for eviction attribution).
    footprints: Vec<BTreeSet<MemoryBlock>>,
    worst_variant: usize,
    next_release: u64,
    released: u64,
    queue: VecDeque<Job>,
    report: TaskReport,
    responses_sum: u64,
}

/// Runs the co-simulation.
///
/// # Errors
///
/// Returns [`SimError`] for empty/ill-formed task sets or faulting
/// programs.
pub fn simulate(tasks: &[SchedTask], config: &SchedConfig) -> Result<SimReport, SimError> {
    if tasks.is_empty() {
        return Err(SimError::NoTasks);
    }
    {
        let mut prios: Vec<u32> = tasks.iter().map(|t| t.priority).collect();
        prios.sort_unstable();
        for w in prios.windows(2) {
            if w[0] == w[1] {
                return Err(SimError::DuplicatePriority(w[0]));
            }
        }
    }

    // Pre-trace every variant of every task.
    let mut runtimes: Vec<TaskRuntime> = Vec::with_capacity(tasks.len());
    for t in tasks {
        let mut traces = Vec::new();
        let mut isolated_hits = Vec::new();
        let mut footprints = Vec::new();
        let mut timings = Vec::new();
        for variant in t.program.variants() {
            let trace = trace_variant(&t.program, variant)
                .map_err(|source| SimError::Exec { task: t.program.name().into(), source })?;
            let blocks: BTreeSet<MemoryBlock> =
                trace.accesses.iter().map(|a| config.geometry.block_of_addr(a.addr)).collect();
            // Cold classification: drives Worst selection and the
            // reload-counting reference (L1 hit/miss per access).
            let mut memory = MemorySystem::build(config)?;
            let mut cycles = trace.instructions * config.model.cpi;
            let hits: Vec<bool> = trace
                .accesses
                .iter()
                .map(|a| {
                    let (extra, l1_miss) =
                        memory.access_block(config.geometry.block_of_addr(a.addr), config);
                    cycles += extra;
                    !l1_miss
                })
                .collect();
            timings.push(cycles);
            traces.push(trace.accesses);
            isolated_hits.push(hits);
            footprints.push(blocks);
        }
        if let VariantPolicy::Fixed(i) = config.variant_policy {
            if i >= traces.len() {
                return Err(SimError::BadVariant { task: t.program.name().into(), index: i });
            }
        }
        let worst_variant = (0..timings.len()).max_by_key(|i| timings[*i]).unwrap_or(0);
        runtimes.push(TaskRuntime {
            traces,
            isolated_hits,
            footprints,
            worst_variant,
            next_release: 0,
            released: 0,
            queue: VecDeque::new(),
            report: TaskReport {
                name: t.program.name().to_string(),
                released: 0,
                completed: 0,
                max_response: 0,
                mean_response: 0,
                deadline_misses: 0,
                preemptions: 0,
            },
            responses_sum: 0,
        });
    }

    // Priority order: indices sorted by ascending priority value.
    let mut prio_order: Vec<usize> = (0..tasks.len()).collect();
    prio_order.sort_by_key(|i| tasks[*i].priority);

    // Shared mode uses caches[0] for everyone; private mode one per task.
    let mut caches: Vec<MemorySystem> = match config.cache_mode {
        CacheMode::Shared => vec![MemorySystem::build(config)?],
        CacheMode::Private => {
            tasks.iter().map(|_| MemorySystem::build(config)).collect::<Result<_, _>>()?
        }
    };
    let cache_of = |task: usize| match config.cache_mode {
        CacheMode::Shared => 0,
        CacheMode::Private => task,
    };
    let mut time: u64 = 0;
    let mut current: Option<usize> = None; // task index of the running job
    let mut slice_start: u64 = 0;
    let mut preemption_records = Vec::new();
    let mut slices: Vec<ExecSlice> = Vec::new();

    let close_slice = |slices: &mut Vec<ExecSlice>, task: usize, start: u64, end: u64| {
        if end > start && slices.len() < RECORD_CAP {
            slices.push(ExecSlice { task, start, end });
        }
    };

    loop {
        // Release jobs due by `time` (only while inside the horizon).
        for (ti, rt) in runtimes.iter_mut().enumerate() {
            while rt.next_release <= time && rt.next_release < config.horizon {
                let variant = match config.variant_policy {
                    VariantPolicy::Fixed(i) => i,
                    VariantPolicy::RoundRobin => (rt.released as usize) % rt.traces.len(),
                    VariantPolicy::Worst => rt.worst_variant,
                };
                rt.queue.push_back(Job {
                    release: rt.next_release,
                    variant,
                    pos: 0,
                    preempted_state: None,
                    lost: std::collections::BTreeMap::new(),
                    started: false,
                });
                rt.released += 1;
                rt.report.released += 1;
                rt.next_release += tasks[ti].period;
            }
        }

        // Pick the highest-priority task with a pending job.
        let Some(&next) = prio_order.iter().find(|i| !runtimes[**i].queue.is_empty()) else {
            // Idle: jump to the next release inside the horizon, or stop.
            let upcoming =
                runtimes.iter().map(|rt| rt.next_release).filter(|r| *r < config.horizon).min();
            match upcoming {
                Some(t) if t > time => {
                    if let Some(cur) = current.take() {
                        close_slice(&mut slices, cur, slice_start, time);
                    }
                    time = t;
                    continue;
                }
                Some(_) => continue,
                None => break,
            }
        };

        // Context switching bookkeeping.
        if current != Some(next) {
            if let Some(cur) = current {
                close_slice(&mut slices, cur, slice_start, time);
                // Switching away from an unfinished job = a preemption of
                // `cur` by `next` (cur still has a job at queue front).
                let started_variant =
                    runtimes[cur].queue.front().filter(|job| job.started).map(|job| job.variant);
                if let Some(variant) = started_variant {
                    let cache = &caches[cache_of(cur)];
                    let resident: BTreeSet<MemoryBlock> = runtimes[cur].footprints[variant]
                        .iter()
                        .filter(|b| cache.is_resident_l1(**b))
                        .copied()
                        .collect();
                    let rt = &mut runtimes[cur];
                    rt.queue.front_mut().expect("checked above").preempted_state =
                        Some(PreemptedState { resident, by: next, at: time });
                    rt.report.preemptions += 1;
                }
            }
            // Resuming a previously-preempted job costs the second switch.
            if let Some(job) = runtimes[next].queue.front_mut() {
                if let Some(state) = job.preempted_state.take() {
                    // Both switches of the preemption (to the preemptor and
                    // back) are charged to the preempted task's response,
                    // matching the 2·Ccs accounting of Eq. 7.
                    time += 2 * config.ctx_switch;
                    let cache = &caches[cache_of(next)];
                    let displaced: Vec<MemoryBlock> = state
                        .resident
                        .iter()
                        .filter(|b| !cache.is_resident_l1(**b))
                        .copied()
                        .collect();
                    if preemption_records.len() < RECORD_CAP {
                        let rec_idx = preemption_records.len();
                        for b in &displaced {
                            job.lost.insert(*b, rec_idx);
                        }
                        preemption_records.push(PreemptionRecord {
                            preempted: next,
                            preempting: state.by,
                            time: state.at,
                            evicted_lines: displaced.len(),
                            reloaded_lines: 0,
                        });
                    }
                }
            }
            current = Some(next);
            slice_start = time;
        }

        // Execute exactly one instruction of the current job.
        let cache = &mut caches[cache_of(next)];
        let rt = &mut runtimes[next];
        let job = rt.queue.front_mut().expect("picked task has a job");
        job.started = true;
        let trace = &rt.traces[job.variant];
        debug_assert_eq!(trace[job.pos].kind, AccessKind::Fetch);
        let mut cycles = config.model.cpi;
        loop {
            let access = &trace[job.pos];
            let block = config.geometry.block_of_addr(access.addr);
            let (extra, l1_miss) = cache.access_block(block, config);
            cycles += extra;
            if l1_miss {
                if let Some(rec_idx) = job.lost.remove(&block) {
                    // Only an access the isolated run would have hit is an
                    // *extra* miss caused by the preemption; a block that
                    // was about to self-evict anyway costs nothing.
                    if rt.isolated_hits[job.variant][job.pos] {
                        preemption_records[rec_idx].reloaded_lines += 1;
                    }
                }
            } else {
                // A hit means the block was never actually reloaded-after
                // -eviction; if it was marked lost, the mark was stale.
                job.lost.remove(&block);
            }
            job.pos += 1;
            if job.pos >= trace.len() || trace[job.pos].kind == AccessKind::Fetch {
                break;
            }
        }
        time += cycles;

        if job.pos >= trace.len() {
            // Job complete.
            let response = time - job.release;
            rt.report.completed += 1;
            rt.responses_sum += response;
            rt.report.max_response = rt.report.max_response.max(response);
            if response > tasks[next].period {
                rt.report.deadline_misses += 1;
            }
            rt.queue.pop_front();
            close_slice(&mut slices, next, slice_start, time);
            current = None;
        }
    }

    if let Some(cur) = current {
        close_slice(&mut slices, cur, slice_start, time);
    }
    let tasks_report = runtimes
        .into_iter()
        .map(|mut rt| {
            rt.report.mean_response =
                rt.responses_sum.checked_div(rt.report.completed).unwrap_or(0);
            rt.report
        })
        .collect();
    Ok(SimReport { tasks: tasks_report, preemptions: preemption_records, slices, end_time: time })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtprogram::builder::ProgramBuilder;
    use rtprogram::isa::regs::*;

    /// A busy-loop task with a configurable footprint and length.
    fn busy(name: &str, code_base: u64, data_base: u64, iters: u32, words: usize) -> Program {
        let mut b = ProgramBuilder::new(name, code_base, data_base);
        let buf = b.data_space("buf", words.max(1));
        b.counted_loop(iters, R2, |b| {
            b.li_addr(R1, buf);
            for w in 0..words.min(16) {
                b.ld(R3, R1, 4 * w as i32);
            }
        });
        b.build().unwrap()
    }

    fn config(horizon: u64, ctx: u64) -> SchedConfig {
        SchedConfig {
            geometry: CacheGeometry::new(64, 2, 16).unwrap(),
            model: TimingModel::with_miss_penalty(10),
            ctx_switch: ctx,
            horizon,
            variant_policy: VariantPolicy::Worst,
            cache_mode: CacheMode::Shared,
            replacement: ReplacementPolicy::Lru,
            l2: None,
        }
    }

    #[test]
    fn single_task_response_equals_isolated_cost() {
        let t = busy("a", 0x1000, 0x100000, 10, 8);
        let report = simulate(&[SchedTask::new(t, 100_000, 1)], &config(100, 0)).unwrap();
        assert_eq!(report.tasks[0].completed, 1);
        assert_eq!(report.tasks[0].preemptions, 0);
        assert_eq!(report.tasks[0].deadline_misses, 0);
        assert!(report.tasks[0].max_response > 0);
    }

    #[test]
    fn periodic_releases_within_horizon() {
        let t = busy("a", 0x1000, 0x100000, 2, 2);
        let report = simulate(&[SchedTask::new(t, 1_000, 1)], &config(10_000, 0)).unwrap();
        assert_eq!(report.tasks[0].released, 10);
        assert_eq!(report.tasks[0].completed, 10);
    }

    #[test]
    fn high_priority_preempts_low() {
        // A long low-priority task and a short frequent high-priority one.
        let lo = busy("lo", 0x1000, 0x100000, 2_000, 8);
        let hi = busy("hi", 0x8000, 0x110000, 5, 2);
        let report = simulate(
            &[SchedTask::new(hi, 2_000, 1), SchedTask::new(lo, 1_000_000, 2)],
            &config(1_000_000, 0),
        )
        .unwrap();
        assert!(report.tasks[1].preemptions > 0, "low task must be preempted");
        assert!(!report.preemptions.is_empty());
        for p in &report.preemptions {
            assert_eq!(p.preempted, 1);
            assert_eq!(p.preempting, 0);
        }
    }

    #[test]
    fn response_grows_with_interference() {
        let lo = busy("lo", 0x1000, 0x100000, 500, 8);
        let solo = simulate(&[SchedTask::new(lo.clone(), 10_000_000, 2)], &config(1, 0)).unwrap();
        let hi = busy("hi", 0x8000, 0x110000, 5, 2);
        let both = simulate(
            &[SchedTask::new(hi, 3_000, 1), SchedTask::new(lo, 10_000_000, 2)],
            &config(1, 0),
        )
        .unwrap();
        assert!(both.tasks[1].max_response > solo.tasks[0].max_response);
    }

    #[test]
    fn context_switch_cost_lengthens_response() {
        let lo = busy("lo", 0x1000, 0x100000, 500, 8);
        let hi = busy("hi", 0x8000, 0x110000, 5, 2);
        let base = simulate(
            &[SchedTask::new(hi.clone(), 3_000, 1), SchedTask::new(lo.clone(), 10_000_000, 2)],
            &config(200_000, 0),
        )
        .unwrap();
        let with_cs = simulate(
            &[SchedTask::new(hi, 3_000, 1), SchedTask::new(lo, 10_000_000, 2)],
            &config(200_000, 500),
        )
        .unwrap();
        let n = with_cs.tasks[1].preemptions;
        assert!(n > 0);
        assert!(
            with_cs.tasks[1].max_response >= base.tasks[1].max_response + 2 * 500,
            "at least one preemption adds 2 Ccs"
        );
    }

    #[test]
    fn eviction_records_are_bounded_by_footprint() {
        let lo = busy("lo", 0x1000, 0x100000, 500, 16);
        let hi = busy("hi", 0x1400, 0x100400, 5, 16); // overlapping indices
        let report = simulate(
            &[SchedTask::new(hi, 3_000, 1), SchedTask::new(lo, 10_000_000, 2)],
            &config(200_000, 0),
        )
        .unwrap();
        assert!(!report.preemptions.is_empty());
        for p in &report.preemptions {
            assert!(p.evicted_lines <= 64 * 2, "cannot exceed the cache");
        }
        assert!(
            report.preemptions.iter().any(|p| p.evicted_lines > 0),
            "overlapping tasks must evict something"
        );
    }

    #[test]
    fn duplicate_priorities_rejected() {
        let a = busy("a", 0x1000, 0x100000, 1, 1);
        let b = busy("b", 0x8000, 0x110000, 1, 1);
        let err = simulate(
            &[SchedTask::new(a, 1_000, 1), SchedTask::new(b, 1_000, 1)],
            &config(1_000, 0),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::DuplicatePriority(1)));
    }

    #[test]
    fn empty_task_set_rejected() {
        assert!(matches!(simulate(&[], &config(1_000, 0)), Err(SimError::NoTasks)));
    }

    #[test]
    fn bad_fixed_variant_rejected() {
        let a = busy("a", 0x1000, 0x100000, 1, 1);
        let mut cfg = config(1_000, 0);
        cfg.variant_policy = VariantPolicy::Fixed(7);
        assert!(matches!(
            simulate(&[SchedTask::new(a, 1_000, 1)], &cfg),
            Err(SimError::BadVariant { .. })
        ));
    }

    #[test]
    fn slices_cover_disjoint_intervals() {
        let lo = busy("lo", 0x1000, 0x100000, 200, 8);
        let hi = busy("hi", 0x8000, 0x110000, 5, 2);
        let report = simulate(
            &[SchedTask::new(hi, 3_000, 1), SchedTask::new(lo, 10_000_000, 2)],
            &config(1, 0),
        )
        .unwrap();
        let mut sorted = report.slices.clone();
        sorted.sort_by_key(|s| s.start);
        for w in sorted.windows(2) {
            assert!(w[0].end <= w[1].start, "slices must not overlap: {w:?}");
        }
    }

    #[test]
    fn round_robin_cycles_variants() {
        // A program with two variants of very different length; round
        // robin must produce alternating responses.
        let mut b = ProgramBuilder::new("v", 0x1000, 0x100000);
        let sel = b.data_space("sel", 1);
        b.li_addr(R1, sel);
        b.ld(R2, R1, 0);
        b.if_else(
            rtprogram::Cond::Eq,
            R2,
            R0,
            |b| b.counted_loop(100, R3, |b| b.nop()),
            |b| b.nop(),
        );
        b.variant(rtprogram::InputVariant::named("long").with_write(sel, 0));
        b.variant(rtprogram::InputVariant::named("short").with_write(sel, 1));
        let p = b.build().unwrap();
        let mut cfg = config(40_000, 0);
        cfg.variant_policy = VariantPolicy::RoundRobin;
        let report = simulate(&[SchedTask::new(p, 10_000, 1)], &cfg).unwrap();
        assert_eq!(report.tasks[0].completed, 4);
        assert!(report.tasks[0].max_response > report.tasks[0].mean_response);
    }

    #[test]
    fn error_display() {
        assert!(SimError::NoTasks.to_string().contains("no tasks"));
        assert!(SimError::DuplicatePriority(3).to_string().contains('3'));
    }

    #[test]
    fn l2_reduces_response_under_thrashing() {
        // A task whose footprint exceeds the L1 but fits the L2: with an
        // L2 each self-eviction reload costs 2 instead of 10 cycles.
        let mut b = ProgramBuilder::new("big", 0x1000, 0x100000);
        let buf = b.data_space("buf", 512); // 2 KiB on a 1 KiB L1
        b.counted_loop(4, R2, |b| {
            b.li_addr(R1, buf);
            b.counted_loop(512, R3, |b| {
                b.ld(R4, R1, 0);
                b.addi(R1, R1, 4);
            });
        });
        let big = b.build().unwrap();
        let mut cfg = config(1, 0);
        cfg.geometry = CacheGeometry::new(32, 2, 16).unwrap();
        let flat = simulate(&[SchedTask::new(big.clone(), 10_000_000, 1)], &cfg).unwrap();
        cfg.l2 = Some(L2Config { geometry: CacheGeometry::new(512, 4, 16).unwrap(), penalty: 2 });
        let layered = simulate(&[SchedTask::new(big, 10_000_000, 1)], &cfg).unwrap();
        assert!(
            layered.tasks[0].max_response < flat.tasks[0].max_response,
            "L2 must absorb the reload traffic: {} vs {}",
            layered.tasks[0].max_response,
            flat.tasks[0].max_response
        );
    }

    #[test]
    fn l2_misconfiguration_is_rejected() {
        let t = busy("a", 0x1000, 0x100000, 1, 1);
        let mut cfg = config(1_000, 0);
        cfg.l2 = Some(L2Config {
            geometry: CacheGeometry::new(4, 2, 32).unwrap(), // line mismatch
            penalty: 2,
        });
        assert!(matches!(
            simulate(&[SchedTask::new(t, 1_000, 1)], &cfg),
            Err(SimError::Hierarchy(_))
        ));
    }
}

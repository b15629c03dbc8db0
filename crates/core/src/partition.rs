//! Cache-partitioning analysis — the *other* category of cache
//! predictability techniques the paper surveys in §II (SMART-style
//! hardware partitioning \[2\], \[3\]).
//!
//! Giving each task a private slice of the cache ways eliminates
//! inter-task eviction entirely — `Cpre ≡ 0` — but every task then runs
//! against a smaller cache, inflating its WCET. This module quantifies
//! that trade-off so the `repro` ablation can compare partitioning
//! against the paper's shared-cache combined analysis.

use rtcache::{CacheGeometry, GeometryError};
use rtprogram::Program;
use rtwcet::{estimate_wcet, TimingModel};

use crate::task::TaskParams;
use crate::wcrt::{fixpoint, WcrtParams, WcrtResult};
use crate::AnalysisError;

/// Errors from partition construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// More tasks than ways: someone would get an empty partition.
    TooManyTasks {
        /// Number of tasks to place.
        tasks: usize,
        /// Ways available.
        ways: u32,
    },
    /// The per-task geometry was invalid.
    Geometry(GeometryError),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::TooManyTasks { tasks, ways } => {
                write!(f, "{tasks} tasks cannot share {ways} ways (each needs at least one)")
            }
            PartitionError::Geometry(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<GeometryError> for PartitionError {
    fn from(e: GeometryError) -> Self {
        PartitionError::Geometry(e)
    }
}

/// Splits the cache ways evenly across `tasks` tasks; leftover ways go to
/// the earliest tasks (input order — by convention the highest-priority
/// tasks, which benefit most from extra capacity).
///
/// # Errors
///
/// Returns [`PartitionError::TooManyTasks`] if there are fewer ways than
/// tasks.
pub fn even_way_partition(
    geometry: CacheGeometry,
    tasks: usize,
) -> Result<Vec<u32>, PartitionError> {
    if tasks == 0 {
        return Ok(Vec::new());
    }
    if (tasks as u64) > u64::from(geometry.ways()) {
        return Err(PartitionError::TooManyTasks { tasks, ways: geometry.ways() });
    }
    let base = geometry.ways() / tasks as u32;
    let extra = geometry.ways() as usize % tasks;
    Ok((0..tasks).map(|i| base + u32::from(i < extra)).collect())
}

/// The outcome of analyzing one task under its partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedTask {
    /// Task name.
    pub name: String,
    /// Ways assigned to the task.
    pub ways: u32,
    /// WCET against the partitioned (smaller) cache.
    pub wcet: u64,
    /// Response time under Eq. 6 with `Cpre = 0` (context switches still
    /// charged twice per preemption).
    pub response: WcrtResult,
}

/// Analyzes a task system under way-partitioning: each task gets
/// `ways[i]` ways of the cache's sets, its WCET is re-estimated against
/// that private geometry, and response times are computed by the Eq. 7
/// [`fixpoint`] with zero reload lines (`wcrt.ctx_switch` is still
/// charged twice per preemption; `wcrt.miss_penalty` prices nothing).
///
/// # Errors
///
/// Returns [`AnalysisError::Wcet`] if a WCET estimation fails.
///
/// # Panics
///
/// Panics if the input lengths disagree, a partition has zero ways, or
/// as [`fixpoint`].
pub fn partitioned_analyze_all(
    programs: &[Program],
    params: &[TaskParams],
    geometry: CacheGeometry,
    model: TimingModel,
    ways: &[u32],
    wcrt: &WcrtParams,
) -> Result<Vec<PartitionedTask>, AnalysisError> {
    assert_eq!(programs.len(), params.len(), "one parameter set per program");
    assert_eq!(programs.len(), ways.len(), "one partition per program");
    let mut wcets = Vec::with_capacity(programs.len());
    for (program, w) in programs.iter().zip(ways) {
        assert!(*w > 0, "every task needs at least one way");
        let private = CacheGeometry::new(geometry.sets(), *w, geometry.line_bytes())
            .expect("sets and line size come from a valid geometry");
        let est = estimate_wcet(program, private, model)
            .map_err(|source| AnalysisError::Wcet { task: program.name().to_string(), source })?;
        wcets.push(est.cycles);
    }
    Ok((0..programs.len())
        .map(|i| PartitionedTask {
            name: programs[i].name().to_string(),
            ways: ways[i],
            wcet: wcets[i],
            response: fixpoint(&wcets, params, |_, _| 0, i, wcrt, Some("generic")).result,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approaches::{CrpdApproach, CrpdMatrix};
    use crate::task::AnalyzedTask;

    #[test]
    fn even_partition_distributes_remainder() {
        let g = CacheGeometry::paper_l1(); // 4 ways
        assert_eq!(even_way_partition(g, 3).unwrap(), vec![2, 1, 1]);
        assert_eq!(even_way_partition(g, 2).unwrap(), vec![2, 2]);
        assert_eq!(even_way_partition(g, 4).unwrap(), vec![1, 1, 1, 1]);
        assert!(even_way_partition(g, 0).unwrap().is_empty());
        assert!(matches!(
            even_way_partition(g, 5),
            Err(PartitionError::TooManyTasks { tasks: 5, ways: 4 })
        ));
    }

    #[test]
    fn partitioning_inflates_wcet_but_zeroes_crpd() {
        let geometry = CacheGeometry::new(64, 4, 16).unwrap();
        let model = TimingModel::default();
        let programs = vec![rtworkloads::mobile_robot(), rtworkloads::edge_detection_with_dim(10)];
        let params = vec![
            TaskParams { period: 300_000, priority: 2 },
            TaskParams { period: 3_000_000, priority: 3 },
        ];
        let ways = even_way_partition(geometry, 2).unwrap();
        let wcrt = WcrtParams { miss_penalty: 20, ctx_switch: 300, ..WcrtParams::default() };
        let parted =
            partitioned_analyze_all(&programs, &params, geometry, model, &ways, &wcrt).unwrap();
        // Shared-cache WCETs for comparison.
        for (p, pt) in programs.iter().zip(&parted) {
            let shared = estimate_wcet(p, geometry, model).unwrap().cycles;
            assert!(pt.wcet >= shared, "{}: fewer ways cannot be faster", pt.name);
        }
        assert!(parted.iter().all(|t| t.response.schedulable));
        // Against the shared-cache combined analysis: same recurrence
        // structure, different cost split.
        let tasks: Vec<AnalyzedTask> = programs
            .iter()
            .zip(&params)
            .map(|(p, prm)| AnalyzedTask::analyze(p, prm.clone(), geometry, model).unwrap())
            .collect();
        let matrix = CrpdMatrix::compute(CrpdApproach::Combined, &tasks);
        let shared = crate::analyze_all(&tasks, &matrix, &wcrt);
        // Both are valid analyses; neither dominates universally — just
        // check both produce sensible, schedulable results here.
        assert!(shared.iter().all(|r| r.schedulable));
    }

    #[test]
    fn error_display() {
        let e = PartitionError::TooManyTasks { tasks: 9, ways: 4 };
        assert!(e.to_string().contains('9'));
    }
}

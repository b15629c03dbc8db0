//! CRPD/WCRT analysis for preemptive multi-tasking real-time systems with
//! caches — the primary contribution of Tan & Mooney (DATE 2004).
//!
//! The analysis bounds the *cache-related preemption delay* (CRPD) a
//! preempting task imposes on a preempted task and folds it into the
//! fixed-priority response-time recurrence:
//!
//! 1. **Intra-task analysis** ([`intra`]): which of the preempted task's
//!    memory blocks are *useful* — cached at the preemption point and
//!    re-referenced soon enough to have hit (Lee et al. \[21\], §IV).
//! 2. **Inter-task analysis** ([`rtcache::Ciip`]): the Cache Index
//!    Induced Partition and the per-set conflict bound
//!    `S(Ma, Mb) = Σ_r min(|m̂a,r|, |m̂b,r|, L)` (Eq. 2/3, §V).
//! 3. **Path analysis of the preempting task** (§VI): the bound is
//!    maximized over the preempting task's feasible paths (Eq. 4).
//! 4. **WCRT** ([`wcrt`]): Eq. 7's recurrence with per-preemption cost
//!    `Cpre(Ti,Tj) + 2·Ccs`.
//!
//! [`approaches`] implements the four bounds compared in the paper's
//! Table II; [`task::AnalyzedTask`] packages a program's traces, footprint
//! CIIPs and WCET for the analysis.
//!
//! # Example
//!
//! ```
//! use crpd::approaches::{reload_lines, CrpdApproach};
//! use crpd::task::{AnalyzedTask, TaskParams};
//! use rtcache::CacheGeometry;
//! use rtwcet::TimingModel;
//!
//! # fn main() -> Result<(), crpd::AnalysisError> {
//! let geometry = CacheGeometry::paper_l1();
//! let model = TimingModel::default();
//! let ed = AnalyzedTask::analyze(
//!     &rtworkloads::edge_detection_with_dim(8),
//!     TaskParams { period: 650_000, priority: 3 },
//!     geometry,
//!     model,
//! )?;
//! let mr = AnalyzedTask::analyze(
//!     &rtworkloads::mobile_robot(),
//!     TaskParams { period: 350_000, priority: 2 },
//!     geometry,
//!     model,
//! )?;
//! let combined = reload_lines(CrpdApproach::Combined, &ed, &mr);
//! let naive = reload_lines(CrpdApproach::AllPreemptingLines, &ed, &mr);
//! assert!(combined <= naive);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approaches;
pub mod intra;
pub mod partition;
pub mod schedutil;
pub mod task;
pub mod wcrt;

/// Serializes unit tests that install an `rtobs` session: the recorder
/// is process-global, so a concurrently-running test could otherwise
/// record into (and collide with) another test's counters.
#[cfg(test)]
pub(crate) fn obs_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    match LOCK.get_or_init(std::sync::Mutex::default).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

use std::fmt;

pub use approaches::{
    combined_overlap_breakdown, reload_lines, CrpdApproach, CrpdCellCache, CrpdMatrix,
};
pub use intra::{dataflow_useful, DataflowUseful, UsefulTrace};
pub use partition::{even_way_partition, partitioned_analyze_all, PartitionedTask};
pub use schedutil::{hyperperiod, liu_layland_bound, rate_monotonic_priorities, total_utilization};
pub use task::{
    content_hash128, program_fingerprint, AnalyzedPath, AnalyzedProgram, AnalyzedTask, TaskParams,
};
pub use wcrt::{
    analyze_all, explain_response_time, response_time, response_time_generic, StopReason,
    WcrtBreakdown, WcrtParams, WcrtResult,
};

/// Which useful-block formulation Approaches 3 and 4 use.
#[derive(Debug, Clone, Copy)]
pub enum UsefulMethod<'a> {
    /// The exact per-execution-point trace sweep (default).
    TraceExact,
    /// Lee's RMB/LMB dataflow over the preempted task's CFG (looser;
    /// for fidelity comparisons and ablations).
    Dataflow(&'a DataflowUseful),
}

/// Errors from the CRPD analysis pipeline.
#[derive(Debug)]
pub enum AnalysisError {
    /// A task's path simulation faulted.
    Exec {
        /// The task whose simulation faulted.
        task: String,
        /// The underlying fault.
        source: rtprogram::ExecError,
    },
    /// WCET estimation failed.
    Wcet {
        /// The task whose WCET estimation failed.
        task: String,
        /// The underlying error.
        source: rtwcet::WcetError,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Exec { task, source } => write!(f, "simulating task `{task}`: {source}"),
            AnalysisError::Wcet { task, source } => {
                write!(f, "estimating WCET of task `{task}`: {source}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Exec { source, .. } => Some(source),
            AnalysisError::Wcet { source, .. } => Some(source),
        }
    }
}

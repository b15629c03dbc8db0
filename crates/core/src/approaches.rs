//! The four CRPD estimation approaches compared in the paper's
//! experiments (§VIII) and the per-task-pair reload matrix.

use std::borrow::Borrow;
use std::convert::Infallible;
use std::fmt;

use crate::store::StageStore;
use crate::task::AnalyzedTask;

/// How the number of cache lines reloaded after a preemption is bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrpdApproach {
    /// **Approach 1** (Busquets-Mataix et al. \[20\]): every cache line the
    /// preempting task uses is assumed reloaded.
    AllPreemptingLines,
    /// **Approach 2** (Tan & Mooney \[1\]): the CIIP overlap bound
    /// `S(Ma, Mb)` of Eq. 2 between the two tasks' full footprints.
    InterTask,
    /// **Approach 3** (Lee et al. \[21\]): the preempted task's useful
    /// memory blocks, ignoring the preempting task.
    UsefulBlocks,
    /// **Approach 4** (this paper, §V–VI): useful blocks of the preempted
    /// task intersected per set with the preempting task's per-path
    /// footprint, maximized over the preempting task's feasible paths
    /// (Eq. 4).
    Combined,
}

impl CrpdApproach {
    /// All four approaches, in the paper's order.
    pub const ALL: [CrpdApproach; 4] = [
        CrpdApproach::AllPreemptingLines,
        CrpdApproach::InterTask,
        CrpdApproach::UsefulBlocks,
        CrpdApproach::Combined,
    ];

    /// The paper's label ("App. 1" … "App. 4").
    pub fn label(self) -> &'static str {
        match self {
            CrpdApproach::AllPreemptingLines => "App. 1",
            CrpdApproach::InterTask => "App. 2",
            CrpdApproach::UsefulBlocks => "App. 3",
            CrpdApproach::Combined => "App. 4",
        }
    }
}

impl fmt::Display for CrpdApproach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Bounds the number of cache lines the `preempted` task must reload
/// after one preemption by `preempting` (one cell of the paper's
/// Table II).
///
/// Every approach runs on the packed footprints built at analysis time:
/// Approach 1 reads the stored line bound, Approach 2 is one dense
/// min-sum, and Approaches 3 and 4 search each path's skyline.
///
/// # Panics
///
/// Panics if the two tasks were analyzed under different cache geometries.
pub fn reload_lines(
    approach: CrpdApproach,
    preempted: &AnalyzedTask,
    preempting: &AnalyzedTask,
) -> usize {
    assert_eq!(
        preempted.geometry(),
        preempting.geometry(),
        "tasks analyzed under different cache geometries"
    );
    match approach {
        CrpdApproach::AllPreemptingLines => preempting.all_blocks_packed().line_bound(),
        CrpdApproach::InterTask => {
            preempted.all_blocks_packed().overlap_bound(preempting.all_blocks_packed())
        }
        CrpdApproach::UsefulBlocks => preempted.useful_line_bound(),
        CrpdApproach::Combined => preempting
            .paths()
            .iter()
            .map(|p| preempted.max_useful_overlap_packed(&p.packed))
            .max()
            .unwrap_or(0),
    }
}

/// The per-set terms behind the Combined (Approach 4) bound for one
/// preemption pair, for explainability: finds the worst (preempting
/// path, preempted path, execution point) combination — the one
/// [`reload_lines`] maximizes over — and returns the per-cache-set
/// contributions of `S(useful(t), m_b)` at that point, largest first
/// (ties broken by set index). The contributions sum to
/// `reload_lines(Combined, preempted, preempting)`.
///
/// Deterministic recomputation from the analysis artifacts, independent
/// of whether an `rtobs` recorder is installed.
///
/// # Panics
///
/// Panics if the two tasks were analyzed under different cache geometries.
pub fn combined_overlap_breakdown(
    preempted: &AnalyzedTask,
    preempting: &AnalyzedTask,
) -> Vec<rtcache::OverlapContribution> {
    assert_eq!(
        preempted.geometry(),
        preempting.geometry(),
        "tasks analyzed under different cache geometries"
    );
    type Pair<'a> = (usize, &'a crate::task::AnalyzedPath, &'a crate::task::AnalyzedPath);
    let mut best: Option<Pair<'_>> = None;
    for preempting_path in preempting.paths() {
        for own in preempted.paths() {
            // Pair selection runs on the packed kernel (same bound values
            // as the sweep); only the winning pair re-runs exactly below.
            let bound = own.trace.max_packed_overlap(&preempting_path.packed);
            // Strict `>` keeps the first maximum in path order, so the
            // result is deterministic.
            if best.is_none_or(|(b, ..)| bound > b) {
                best = Some((bound, own, preempting_path));
            }
        }
    }
    let Some((bound, own, preempting_path)) = best else { return Vec::new() };
    if bound == 0 {
        return Vec::new();
    }
    // The skyline discards execution points, so the exact sweep recovers
    // the maximizing position, for the winning pair only.
    let (_, pos) = own.trace.max_overlap_bound(&preempting_path.blocks);
    let mut contributions = own.trace.useful_at(pos).overlap_contributions(&preempting_path.blocks);
    contributions.sort_by_key(|c| (std::cmp::Reverse(c.lines), c.set));
    contributions
}

/// A keyed cache of pairwise reload bounds: the `crpd_cell` stage's
/// [`StageStore`], one cell per `(approach, preempted fingerprint,
/// preempting fingerprint)`.
///
/// Fingerprints ([`AnalyzedTask::fingerprint`]) content-address the
/// params-free [`crate::task::AnalyzedProgram`] artifacts, so a bound
/// computed once is reused across WCRT requests, parameter sweeps and
/// priority reassignments — only rows/columns of a task whose *program*
/// (or geometry/model) changed recompute. Scheduling parameters are not
/// part of the key: they decide *which* cells a matrix needs (who can
/// preempt whom), never a cell's value.
///
/// Single-flight like every stage: concurrent lookups of one missing
/// cell compute it once. The computation is the serial [`reload_lines`]
/// kernel and never enters [`rtpar`], so a leader never waits on pool
/// work and no waiter can be its own leader.
pub type CrpdCellCache = StageStore<(CrpdApproach, u128, u128), usize>;

impl Default for CrpdCellCache {
    fn default() -> Self {
        StageStore::new("crpd_cell")
    }
}

impl CrpdCellCache {
    /// [`reload_lines`] through the cache: returns the memoized bound for
    /// the pair's content key, computing and inserting it on first use.
    ///
    /// Every lookup is recorded with `rtobs` as a `crpd_cell` stage
    /// lookup; only misses run (and record a span for) the actual
    /// computation.
    ///
    /// # Panics
    ///
    /// Panics if the two tasks were analyzed under different cache
    /// geometries.
    pub fn reload_lines(
        &self,
        approach: CrpdApproach,
        preempted: &AnalyzedTask,
        preempting: &AnalyzedTask,
    ) -> usize {
        let key = (approach, preempted.fingerprint(), preempting.fingerprint());
        let Ok(lines) = self.get_or_compute(key, || {
            Ok::<_, Infallible>(traced_reload_lines(approach, preempted, preempting))
        });
        lines
    }
}

/// [`reload_lines`] under its per-cell `crpd` span.
fn traced_reload_lines(
    approach: CrpdApproach,
    preempted: &AnalyzedTask,
    preempting: &AnalyzedTask,
) -> usize {
    let _span = rtobs::span_labeled("crpd", || {
        format!("{approach} {}<-{}", preempted.name(), preempting.name())
    });
    reload_lines(approach, preempted, preempting)
}

/// The reload-line matrix of a task set under one approach:
/// `lines[i][j]` is the bound for task `i` preempted by task `j`
/// (`usize::MAX` is never used; cells where `j` cannot preempt `i` hold
/// zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrpdMatrix {
    /// The approach the matrix was computed under.
    pub approach: CrpdApproach,
    /// `lines[i][j]`: reload bound for task `i` preempted by task `j`.
    pub lines: Vec<Vec<usize>>,
}

impl CrpdMatrix {
    /// Computes the matrix for `tasks` (any order); only pairs where
    /// `tasks[j]` has higher priority than `tasks[i]` get a non-zero
    /// bound.
    ///
    /// Accepts any slice of task-like values (`&[AnalyzedTask]`,
    /// `&[Arc<AnalyzedTask>]`, …) so callers that share analysis artifacts
    /// across threads need not clone them.
    ///
    /// The `n²` preemption-pair cells are walked in row-major order on
    /// the calling thread, so a matrix starts no [`rtpar`] batch and is
    /// byte-identical at any thread count. Callers get their parallelism
    /// one level up, from the approaches, systems or sweep points they
    /// fan out.
    pub fn compute<T: Borrow<AnalyzedTask>>(approach: CrpdApproach, tasks: &[T]) -> Self {
        Self::compute_inner(approach, tasks, None)
    }

    /// [`compute`](Self::compute) through a [`CrpdCellCache`]: cells whose
    /// `(approach, preempted, preempting)` content key was already bounded
    /// — by an earlier matrix, another request, or a different parameter
    /// binding of the same programs — are served from the cache; only
    /// fresh pairs run the pairwise analysis. The resulting matrix is
    /// byte-identical to an uncached [`compute`](Self::compute), and is
    /// walked the same way.
    pub fn compute_with<T: Borrow<AnalyzedTask>>(
        approach: CrpdApproach,
        tasks: &[T],
        cells: &CrpdCellCache,
    ) -> Self {
        Self::compute_inner(approach, tasks, Some(cells))
    }

    fn compute_inner<T: Borrow<AnalyzedTask>>(
        approach: CrpdApproach,
        tasks: &[T],
        cache: Option<&CrpdCellCache>,
    ) -> Self {
        let _span = rtobs::span_labeled("crpd", || format!("{approach} matrix"));
        let cell = |i: usize, j: usize| {
            let (ti, tj) = (tasks[i].borrow(), tasks[j].borrow());
            if tj.params().priority >= ti.params().priority {
                return 0;
            }
            let lines = match cache {
                Some(cache) => cache.reload_lines(approach, ti, tj),
                None => traced_reload_lines(approach, ti, tj),
            };
            rtobs::record_crpd_cell(approach.label(), i, j, lines as u64);
            lines
        };
        let n = tasks.len();
        let lines = (0..n).map(|i| (0..n).map(|j| cell(i, j)).collect()).collect();
        CrpdMatrix { approach, lines }
    }

    /// The bound for task `i` preempted by task `j`.
    pub fn reload(&self, i: usize, j: usize) -> usize {
        self.lines[i][j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskParams;
    use rtcache::CacheGeometry;
    use rtwcet::TimingModel;

    fn analyze(p: &rtprogram::Program, priority: u32) -> AnalyzedTask {
        AnalyzedTask::analyze(
            p,
            TaskParams { period: 1_000_000, priority },
            CacheGeometry::paper_l1(),
            TimingModel::default(),
        )
        .unwrap()
    }

    fn small_pair() -> (AnalyzedTask, AnalyzedTask) {
        let ed = analyze(&rtworkloads::edge_detection_with_dim(10), 3);
        let mr = analyze(&rtworkloads::mobile_robot(), 2);
        (ed, mr)
    }

    #[test]
    fn approach4_is_tightest() {
        let (ed, mr) = small_pair();
        let a1 = reload_lines(CrpdApproach::AllPreemptingLines, &ed, &mr);
        let a2 = reload_lines(CrpdApproach::InterTask, &ed, &mr);
        let a3 = reload_lines(CrpdApproach::UsefulBlocks, &ed, &mr);
        let a4 = reload_lines(CrpdApproach::Combined, &ed, &mr);
        assert!(a4 <= a2, "combined must not exceed the inter-task bound ({a4} vs {a2})");
        assert!(a4 <= a3, "combined must not exceed the useful-block bound ({a4} vs {a3})");
        assert!(a1 > 0 && a2 > 0 && a3 > 0);
    }

    #[test]
    fn approach1_depends_only_on_preemptor() {
        let (ed, mr) = small_pair();
        let ofdm = analyze(&rtworkloads::ofdm_transmitter_with_points(16), 4);
        let by_mr_1 = reload_lines(CrpdApproach::AllPreemptingLines, &ed, &mr);
        let by_mr_2 = reload_lines(CrpdApproach::AllPreemptingLines, &ofdm, &mr);
        assert_eq!(by_mr_1, by_mr_2);
    }

    #[test]
    fn approach3_depends_only_on_preempted() {
        let (ed, mr) = small_pair();
        let ofdm = analyze(&rtworkloads::ofdm_transmitter_with_points(16), 4);
        let a = reload_lines(CrpdApproach::UsefulBlocks, &ofdm, &mr);
        let b = reload_lines(CrpdApproach::UsefulBlocks, &ofdm, &ed);
        assert_eq!(a, b);
    }

    #[test]
    fn matrix_zeroes_impossible_preemptions() {
        let (ed, mr) = small_pair();
        let tasks = vec![mr, ed]; // mr prio 2 (higher), ed prio 3
        let m = CrpdMatrix::compute(CrpdApproach::Combined, &tasks);
        assert_eq!(m.reload(0, 1), 0, "ED cannot preempt MR");
        assert_eq!(m.reload(0, 0), 0);
        assert_eq!(m.reload(1, 1), 0);
        // MR can preempt ED; with overlapping footprints the bound is > 0.
        assert!(m.reload(1, 0) > 0);
    }

    #[test]
    fn combined_breakdown_sums_to_the_combined_bound() {
        let (ed, mr) = small_pair();
        let bound = reload_lines(CrpdApproach::Combined, &ed, &mr);
        let contributions = combined_overlap_breakdown(&ed, &mr);
        let total: usize = contributions.iter().map(|c| c.lines).sum();
        assert_eq!(total, bound, "per-set contributions must sum to the Eq. 4 bound");
        assert!(bound > 0, "this pair overlaps");
        // Sorted largest-first, ties by set index.
        for pair in contributions.windows(2) {
            assert!(
                pair[0].lines > pair[1].lines
                    || (pair[0].lines == pair[1].lines && pair[0].set < pair[1].set)
            );
        }
    }

    #[test]
    fn matrix_cells_are_recorded_per_pair() {
        let (ed, mr) = small_pair(); // ed prio 3, mr prio 2
        let tasks = vec![mr, ed];
        let session = rtobs::begin();
        let m = CrpdMatrix::compute(CrpdApproach::InterTask, &tasks);
        let counters = session.recorder().counters();
        drop(session);
        let cell = counters
            .crpd_cells
            .get(&("App. 2".to_string(), 1, 0))
            .expect("the one feasible preemption pair is recorded");
        assert_eq!(*cell, m.reload(1, 0) as u64);
        assert!(!counters.crpd_cells.contains_key(&("App. 2".to_string(), 0, 1)));
    }

    #[test]
    fn cell_cache_reuses_bounds_across_matrices_and_rebindings() {
        let (ed, mr) = small_pair(); // one feasible pair: ed preempted by mr
        let cache = CrpdCellCache::default();
        let tasks = vec![mr, ed];
        let m1 = CrpdMatrix::compute_with(CrpdApproach::Combined, &tasks, &cache);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
        let m2 = CrpdMatrix::compute_with(CrpdApproach::Combined, &tasks, &cache);
        assert_eq!(m1, m2);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        // A param-only rebinding keeps the same preemption structure and
        // content keys, so the whole matrix is served from the cache.
        let rebound: Vec<_> = tasks
            .iter()
            .map(|t| t.rebind(TaskParams { period: 7_777, priority: t.params().priority }))
            .collect();
        let m3 = CrpdMatrix::compute_with(CrpdApproach::Combined, &rebound, &cache);
        assert_eq!(m1, m3);
        assert_eq!(cache.misses(), 1, "rebinding params must not recompute any cell");
        // A different approach keys different cells…
        CrpdMatrix::compute_with(CrpdApproach::InterTask, &tasks, &cache);
        assert_eq!((cache.misses(), cache.len()), (2, 2));
        // …and the cached matrix matches the uncached one byte-for-byte.
        assert_eq!(CrpdMatrix::compute(CrpdApproach::Combined, &tasks), m1);
    }

    #[test]
    fn a_cached_matrix_and_eq7_start_no_batch() {
        // MR preempts both ED jobs, and the second ED job (the same
        // program at a lower priority) is preempted by the first too:
        // three feasible pairs, two distinct content keys.
        let (ed, mr) = small_pair();
        let tasks = vec![
            mr.rebind(TaskParams { period: 1_000_000, priority: 1 }),
            ed.rebind(TaskParams { period: 2_000_000, priority: 2 }),
            ed.rebind(TaskParams { period: 4_000_000, priority: 3 }),
        ];
        let params = crate::wcrt::WcrtParams::default();
        // Two cached matrices in a row: the cache's tallies after each.
        let tallies = |pool: &rtpar::Pool| {
            let cache = CrpdCellCache::default();
            let cold =
                pool.install(|| CrpdMatrix::compute_with(CrpdApproach::Combined, &tasks, &cache));
            let after_cold = (cache.hits(), cache.misses(), cache.len());
            let warm =
                pool.install(|| CrpdMatrix::compute_with(CrpdApproach::Combined, &tasks, &cache));
            (cold, warm, after_cold, (cache.hits(), cache.misses(), cache.len()))
        };
        let serial = rtpar::Pool::new(1);
        let reference = serial.install(|| CrpdMatrix::compute(CrpdApproach::Combined, &tasks));
        let (serial_cold, serial_warm, serial_after_cold, serial_after_warm) = tallies(&serial);
        // The second ED job's MR pair hits the key the first one inserted.
        assert_eq!(serial_after_cold, (1, 2, 2));
        assert_eq!(serial_after_warm, (4, 2, 2));

        let pool = rtpar::Pool::new(4);
        let before = pool.stats().batches;
        let uncached = pool.install(|| CrpdMatrix::compute(CrpdApproach::Combined, &tasks));
        assert_eq!(pool.stats().batches, before, "an uncached matrix starts no batch");
        let (cold, warm, after_cold, after_warm) = tallies(&pool);
        assert_eq!((after_cold, after_warm), (serial_after_cold, serial_after_warm));
        for m in [&uncached, &cold, &warm, &serial_cold, &serial_warm] {
            assert_eq!(*m, reference);
        }

        let cache = CrpdCellCache::default();
        pool.install(|| CrpdMatrix::compute_with(CrpdApproach::Combined, &tasks, &cache));
        let before = pool.stats().batches;
        let wcrt = pool.install(|| {
            let warm = CrpdMatrix::compute_with(CrpdApproach::Combined, &tasks, &cache);
            crate::wcrt::analyze_all(&tasks, &warm, &params)
        });
        assert_eq!(pool.stats().batches, before, "a warm sweep point must not fan out");
        assert_eq!(wcrt, crate::wcrt::analyze_all(&tasks, &reference, &params));
    }

    /// The pre-PackedFootprint formulation of every approach, straight
    /// off the tree-structured artifacts — the reference side of the
    /// packed/tree differential tests.
    fn tree_reload_lines(
        approach: CrpdApproach,
        preempted: &AnalyzedTask,
        preempting: &AnalyzedTask,
    ) -> usize {
        match approach {
            CrpdApproach::AllPreemptingLines => preempting.all_blocks().line_bound(),
            CrpdApproach::InterTask => {
                preempted.all_blocks().overlap_bound(preempting.all_blocks())
            }
            CrpdApproach::UsefulBlocks => {
                preempted.paths().iter().map(|p| p.trace.max_line_bound().0).max().unwrap_or(0)
            }
            CrpdApproach::Combined => preempting
                .paths()
                .iter()
                .map(|pp| {
                    preempted
                        .paths()
                        .iter()
                        .map(|own| own.trace.max_overlap_bound(&pp.blocks).0)
                        .max()
                        .unwrap_or(0)
                })
                .max()
                .unwrap_or(0),
        }
    }

    #[test]
    fn packed_pipeline_matches_tree_reference_on_workload_suite() {
        let tasks = [
            analyze(&rtworkloads::adpcm_decoder(), 1),
            analyze(&rtworkloads::edge_detection_with_dim(10), 3),
            analyze(&rtworkloads::mobile_robot(), 2),
            analyze(&rtworkloads::ofdm_transmitter_with_points(16), 4),
        ];
        for preempted in &tasks {
            for preempting in &tasks {
                for approach in CrpdApproach::ALL {
                    assert_eq!(
                        reload_lines(approach, preempted, preempting),
                        tree_reload_lines(approach, preempted, preempting),
                        "{approach}: {} <- {}",
                        preempted.name(),
                        preempting.name()
                    );
                }
            }
        }
    }

    #[test]
    fn reload_lines_is_unchanged_by_an_installed_recorder() {
        // An installed recorder only adds spans and counters; every
        // approach takes the same packed kernel with or without one.
        let (ed, mr) = small_pair();
        let plain: Vec<usize> =
            CrpdApproach::ALL.iter().map(|a| reload_lines(*a, &ed, &mr)).collect();
        let session = rtobs::begin();
        let recorded: Vec<usize> =
            CrpdApproach::ALL.iter().map(|a| reload_lines(*a, &ed, &mr)).collect();
        drop(session);
        assert_eq!(plain, recorded);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(CrpdApproach::AllPreemptingLines.to_string(), "App. 1");
        assert_eq!(CrpdApproach::Combined.label(), "App. 4");
        assert_eq!(CrpdApproach::ALL.len(), 4);
    }

    #[test]
    fn disjoint_tasks_have_zero_combined_cost() {
        // Build two synthetic tasks whose data AND code live in disjoint
        // index ranges; approaches 2 and 4 must report zero (the paper's
        // §II counter-example to Lee's assumption), approaches 1 and 3
        // stay positive.
        use rtworkloads::synthetic::{synthetic_task, SyntheticSpec};
        let g = CacheGeometry::new(512, 4, 16).unwrap();
        let mut lo = SyntheticSpec::new("lo", 0x0001_0000, 0x0010_0000);
        lo.data_words = 256;
        lo.two_paths = false;
        // hi shares neither code nor data indices: offset by 0x1000
        // within the 8 KiB index period and keep footprints < 4 KiB.
        let mut hi = SyntheticSpec::new("hi", 0x0001_1000, 0x0010_1000);
        hi.data_words = 256;
        hi.two_paths = false;
        let t_lo = AnalyzedTask::analyze(
            &synthetic_task(&lo),
            TaskParams { period: 1_000_000, priority: 2 },
            g,
            TimingModel::default(),
        )
        .unwrap();
        let t_hi = AnalyzedTask::analyze(
            &synthetic_task(&hi),
            TaskParams { period: 2_000_000, priority: 3 },
            g,
            TimingModel::default(),
        )
        .unwrap();
        assert_eq!(reload_lines(CrpdApproach::InterTask, &t_hi, &t_lo), 0);
        assert_eq!(reload_lines(CrpdApproach::Combined, &t_hi, &t_lo), 0);
        assert!(reload_lines(CrpdApproach::AllPreemptingLines, &t_hi, &t_lo) > 0);
        assert!(reload_lines(CrpdApproach::UsefulBlocks, &t_hi, &t_lo) > 0);
    }
}

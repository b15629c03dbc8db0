//! The content-addressed artifact DAG: the one memo store every
//! spec-driven command runs through — one fresh store per one-shot
//! `trisc` run, one shared store for the life of `trisc serve`.
//!
//! The pipeline is staged — assemble → per-path trace/RMB-LMB → CIIP
//! footprints → WCET → pairwise CRPD bounds → WCRT recurrence — and each
//! stage's artifact is memoized under a key built from exactly what that
//! stage depends on:
//!
//! | stage       | artifact                    | key                               |
//! |-------------|-----------------------------|-----------------------------------|
//! | `assemble`  | [`Program`]                 | `hash128(name, source)`           |
//! | `analyze`   | [`AnalyzedProgram`]         | `(program_hash, geometry, model)` |
//! | `crpd_cell` | reload bound (lines)        | `(approach, prog_a, prog_b)`      |
//!
//! Scheduling parameters appear in **no** key: a period or priority edit
//! rebinds the cached [`AnalyzedProgram`] ([`crpd::AnalyzedTask::bind`],
//! O(1)) and re-runs only the WCRT fixpoint. A source edit re-keys all
//! three stages; a geometry/model edit re-keys `analyze` and (through the
//! artifact fingerprints) `crpd_cell` while reusing `assemble`.
//!
//! Each stage is a single-flight [`StageStore`] (`crpd::store`, the
//! workspace's one memo store), `crpd_cell` included ([`CrpdCellCache`]).
//! The artifact stages hold their values as [`Arc`]s, so a hit shares the
//! artifact without copying; a cell hit copies its line count. Results
//! are immutable once computed (the analysis is deterministic; see
//! `crpd::intra`'s ordered sweeps), so stale keys age out only when the
//! store is dropped (for the server, when it restarts).
//!
//! Failed stages are *not* cached: the in-flight slot is cleared so a
//! later request retries — errors are cheap to recompute and callers may
//! fix the environment (e.g. a missing include path) between requests.
//! The `assemble` stage is the only place a spec-driven command
//! assembles, so its errors name the failing task (`{name}: line N: …`)
//! for every command alike.

use std::sync::Arc;

use crpd::{AnalyzedProgram, AnalyzedTask, CrpdCellCache, StageStats, StageStore, TaskParams};
use rtcache::CacheGeometry;
use rtprogram::Program;
use rtwcet::TimingModel;

use crate::{CliError, SystemSpec};

/// 128-bit content hash of a task's name and assembly source — the
/// `assemble` stage key. Two independent FNV-1a streams over
/// length-prefixed fields (see [`crpd::content_hash128`]), so
/// `("ab", "c")` and `("a", "bc")` hash differently and collisions are
/// birthday-bound far beyond any realistic artifact population.
pub fn program_hash(name: &str, source: &str) -> u128 {
    crpd::content_hash128([name.as_bytes(), source.as_bytes()])
}

/// The `analyze` stage key: everything an [`AnalyzedProgram`] depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnalysisKey {
    /// [`program_hash`] of the task name and source text.
    pub program_hash: u128,
    /// Cache geometry analyzed under.
    pub geometry: CacheGeometry,
    /// Timing model analyzed under.
    pub model: TimingModel,
}

/// One task's name and assembly source, with its [`program_hash`]
/// computed once. A sweep builds one per task up front, so its many
/// artifact lookups pay no per-lookup hashing.
#[derive(Debug, Clone, Copy)]
pub struct TaskSource<'a> {
    name: &'a str,
    source: &'a str,
    hash: u128,
}

impl<'a> TaskSource<'a> {
    /// Hashes `(name, source)` into the task's `assemble` key.
    pub fn new(name: &'a str, source: &'a str) -> Self {
        TaskSource { name, source, hash: program_hash(name, source) }
    }

    /// The task name.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// One [`TaskSource`] per task of `spec`, pairing each task's name
    /// with its resolved source text (`sources`, in spec order).
    ///
    /// # Panics
    ///
    /// Panics unless `sources` holds exactly one text per spec task.
    pub fn of_spec(spec: &'a SystemSpec, sources: &'a [String]) -> Vec<TaskSource<'a>> {
        assert_eq!(spec.tasks.len(), sources.len(), "one resolved source per spec task");
        spec.tasks.iter().zip(sources).map(|(t, s)| TaskSource::new(&t.name, s)).collect()
    }
}

/// The artifact DAG: one single-flight [`StageStore`] per stage.
#[derive(Debug)]
pub struct ArtifactStore {
    programs: StageStore<u128, Arc<Program>>,
    analyses: StageStore<AnalysisKey, Arc<AnalyzedProgram>>,
    cells: CrpdCellCache,
}

impl Default for ArtifactStore {
    fn default() -> Self {
        ArtifactStore {
            programs: StageStore::new("assemble"),
            analyses: StageStore::new("analyze"),
            cells: CrpdCellCache::default(),
        }
    }
}

impl ArtifactStore {
    /// The memoized [`AnalyzedProgram`] of `task` under `(geometry,
    /// model)`, assembling and analyzing only on first use. Scheduling
    /// parameters are bound *after* the cache ([`AnalyzedTask::bind`]), so
    /// a request differing only in period/priority hits both stages and
    /// re-runs zero pipeline spans — and every explore sweep point rebinds
    /// these shared artifacts, one `assemble`/`analyze` run per unique key.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Asm`] or [`CliError::Analysis`] from the
    /// underlying pipeline; errors are never cached.
    pub fn analyzed_program(
        &self,
        task: TaskSource<'_>,
        geometry: CacheGeometry,
        model: TimingModel,
    ) -> Result<Arc<AnalyzedProgram>, CliError> {
        let program = self.program(task)?;
        let key = AnalysisKey { program_hash: task.hash, geometry, model };
        self.analyses.get_or_compute(key, || {
            AnalyzedProgram::analyze(&program, geometry, model)
                .map(Arc::new)
                .map_err(|e| CliError::Analysis(e.to_string()))
        })
    }

    /// The memoized `assemble` stage's [`Program`] for `task`.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Asm`] naming the task (`{name}: line N: …`);
    /// errors are never cached.
    pub fn program(&self, task: TaskSource<'_>) -> Result<Arc<Program>, CliError> {
        let TaskSource { name, source, hash } = task;
        self.programs.get_or_compute(hash, || {
            let _span = rtobs::span_labeled("assemble", || name.to_string());
            rtprogram::asm::assemble(name, source)
                .map(Arc::new)
                .map_err(|e| CliError::Asm(format!("{name}: {e}")))
        })
    }

    /// Every task of `spec` bound to its spec parameters over the
    /// memoized artifacts, with `sources` (in spec order) as the task
    /// texts. Tasks fan out over the current `rtpar` pool; results and
    /// the first error are taken in task order, so the outcome does not
    /// depend on the pool size.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Options`] for an invalid geometry, else the
    /// first task's [`CliError::Asm`] or [`CliError::Analysis`].
    pub fn spec_tasks(
        &self,
        spec: &SystemSpec,
        sources: &[String],
    ) -> Result<Vec<AnalyzedTask>, CliError> {
        let geometry = spec.cache.geometry()?;
        let model = spec.cache.model();
        let tasks = TaskSource::of_spec(spec, sources);
        rtpar::par_map_range(tasks.len(), |i| {
            let t = &spec.tasks[i];
            let program = self.analyzed_program(tasks[i], geometry, model)?;
            Ok(AnalyzedTask::bind(program, TaskParams { period: t.period, priority: t.priority }))
        })
        .into_iter()
        .collect()
    }

    /// The analysis provider of an explore sweep over `spec`'s tasks
    /// (texts in `sources`, spec order): task index →
    /// [`analyzed_program`], with each task hashed once up front.
    ///
    /// [`analyzed_program`]: ArtifactStore::analyzed_program
    pub fn sweep_provider<'s>(
        &'s self,
        spec: &'s SystemSpec,
        sources: &'s [String],
    ) -> impl Fn(usize, CacheGeometry, TimingModel) -> Result<Arc<AnalyzedProgram>, CliError> + Sync + 's
    {
        let tasks = TaskSource::of_spec(spec, sources);
        move |task, geometry, model| self.analyzed_program(tasks[task], geometry, model)
    }

    /// The memoized `assemble` stage.
    pub fn programs(&self) -> &StageStore<u128, Arc<Program>> {
        &self.programs
    }

    /// The shared CRPD pairwise-cell cache (`crpd_cell` stage).
    pub fn cells(&self) -> &CrpdCellCache {
        &self.cells
    }

    /// Counters of every stage, in pipeline order.
    pub fn stage_stats(&self) -> Vec<StageStats> {
        vec![self.programs.stats(), self.analyses.stats(), self.cells.stats()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TASK: &str =
        "start: li r1, 5\nloop: addi r1, r1, -1\nbne r1, r0, loop\n.bound loop, 5\nhalt\n";

    fn params(priority: u32) -> TaskParams {
        TaskParams { period: 10_000, priority }
    }

    impl ArtifactStore {
        /// `task` bound to `params` over the memoized artifact.
        fn analyzed(
            &self,
            name: &str,
            source: &str,
            params: TaskParams,
            geometry: CacheGeometry,
            model: TimingModel,
        ) -> Result<AnalyzedTask, CliError> {
            let program = self.analyzed_program(TaskSource::new(name, source), geometry, model)?;
            Ok(AnalyzedTask::bind(program, params))
        }
    }

    #[test]
    fn second_lookup_hits_and_shares_the_artifact() {
        let store = ArtifactStore::default();
        let g = CacheGeometry::paper_l1();
        let m = TimingModel::default();
        let a = store.analyzed("t", TASK, params(1), g, m).unwrap();
        assert_eq!(
            (store.analyses.hits(), store.analyses.misses(), store.analyses.len()),
            (0, 1, 1)
        );
        let b = store.analyzed("t", TASK, params(1), g, m).unwrap();
        assert_eq!(
            (store.analyses.hits(), store.analyses.misses(), store.analyses.len()),
            (1, 1, 1)
        );
        assert!(Arc::ptr_eq(a.program(), b.program()), "hits must share the artifact, not copy it");
        assert_eq!((store.programs().hits(), store.programs().misses()), (1, 1));
    }

    #[test]
    fn params_only_changes_hit_every_stage() {
        let store = ArtifactStore::default();
        let g = CacheGeometry::paper_l1();
        let m = TimingModel::default();
        let a = store.analyzed("t", TASK, params(1), g, m).unwrap();
        // Different scheduling parameters: same program artifact, rebound.
        let b = store.analyzed("t", TASK, params(2), g, m).unwrap();
        assert_eq!(
            (store.analyses.hits(), store.analyses.misses(), store.analyses.len()),
            (1, 1, 1)
        );
        assert!(Arc::ptr_eq(a.program(), b.program()));
        assert_eq!(b.params(), &params(2));
    }

    #[test]
    fn content_and_model_changes_miss_the_right_stages() {
        let store = ArtifactStore::default();
        let g = CacheGeometry::paper_l1();
        let m = TimingModel::default();
        store.analyzed("t", TASK, params(1), g, m).unwrap();
        // Different source content under the same name: every stage misses.
        store.analyzed("t", "start: halt\n", params(1), g, m).unwrap();
        // Different geometry: assemble hits, analyze misses.
        store.analyzed("t", TASK, params(1), CacheGeometry::new(64, 2, 16).unwrap(), m).unwrap();
        // Different timing model: assemble hits, analyze misses.
        store.analyzed("t", TASK, params(1), g, TimingModel::with_miss_penalty(40)).unwrap();
        assert_eq!((store.analyses.misses(), store.analyses.len()), (4, 4));
        assert_eq!(store.analyses.hits(), 0);
        assert_eq!((store.programs().misses(), store.programs().len()), (2, 2));
        assert_eq!(store.programs().hits(), 2);
    }

    #[test]
    fn name_is_part_of_the_content() {
        // The task name appears in rendered reports, so artifacts under
        // different names must not alias even with identical source.
        assert_ne!(program_hash("a", "x"), program_hash("b", "x"));
        assert_ne!(program_hash("ab", "c"), program_hash("a", "bc"));
    }

    #[test]
    fn errors_are_not_cached() {
        let store = ArtifactStore::default();
        let g = CacheGeometry::paper_l1();
        let m = TimingModel::default();
        let err = store.analyzed("bad", "frobnicate r1\n", params(1), g, m).unwrap_err();
        assert!(matches!(err, CliError::Asm(_)));
        assert!(store.analyses.is_empty());
        assert!(store.programs().is_empty(), "a failed assemble must clear its slot");
        // The failed stage retries (and fails again) on the next request.
        store.analyzed("bad", "frobnicate r1\n", params(1), g, m).unwrap_err();
        assert_eq!(store.programs().misses(), 2);
    }

    fn one_task_spec(name: &str) -> SystemSpec {
        SystemSpec::parse(&format!("task {name} {name}.s 1000 1\n"), std::path::Path::new(""))
            .unwrap()
    }

    #[test]
    fn sweep_provider_memoizes_per_task_geometry_and_model() {
        const SRC: &str = ".data 0x100000\nbuf: .word 1,2\n.text 0x1000\n\
                           start: li r1, buf\nld r2, 0(r1)\nhalt\n";
        let store = ArtifactStore::default();
        let spec = one_task_spec("a");
        let sources = [SRC.to_string()];
        let provider = store.sweep_provider(&spec, &sources);
        let g64 = CacheGeometry::new(64, 2, 16).unwrap();
        let g32 = CacheGeometry::new(32, 2, 16).unwrap();
        let m20 = TimingModel::with_miss_penalty(20);
        let m40 = TimingModel::with_miss_penalty(40);
        let first = provider(0, g64, m20).unwrap();
        let again = provider(0, g64, m20).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "repeat lookups share the artifact");
        let other_geom = provider(0, g32, m20).unwrap();
        assert!(!Arc::ptr_eq(&first, &other_geom), "geometry is part of the key");
        let other_model = provider(0, g64, m40).unwrap();
        assert!(!Arc::ptr_eq(&first, &other_model), "the model is part of the key");
        assert_ne!(first.fingerprint(), other_geom.fingerprint());
        assert_eq!(
            (store.programs().misses(), store.analyses.misses(), store.analyses.hits()),
            (1, 3, 1)
        );
    }

    #[test]
    fn sweep_assembly_errors_name_the_task_and_are_not_cached() {
        let store = ArtifactStore::default();
        let spec = one_task_spec("bad");
        let sources = ["not assembly".to_string()];
        let provider = store.sweep_provider(&spec, &sources);
        let g = CacheGeometry::new(64, 2, 16).unwrap();
        let err = provider(0, g, TimingModel::default()).unwrap_err();
        assert!(matches!(&err, CliError::Asm(msg) if msg.starts_with("bad: line 1: ")), "{err}");
        // Still fails (and still reports the assembler) on retry.
        let retry = provider(0, g, TimingModel::default()).unwrap_err();
        assert_eq!(retry.to_string(), err.to_string());
        assert_eq!(store.programs().misses(), 2, "the failed assemble was not cached");
        assert!(store.programs().is_empty() && store.analyses.is_empty());
        // Every path through the `assemble` stage names the task alike.
        let direct = store.analyzed("bad", "not assembly", params(1), g, TimingModel::default());
        assert!(matches!(direct, Err(CliError::Asm(msg)) if msg == err_msg(&err)));
        let spec_path = store.spec_tasks(&spec, &sources).unwrap_err();
        assert_eq!(spec_path.to_string(), err.to_string());
    }

    fn err_msg(err: &CliError) -> String {
        let CliError::Asm(msg) = err else { panic!("expected an assembly error, got {err}") };
        msg.clone()
    }
}

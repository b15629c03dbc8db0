//! An in-process artifact store for storeless sweeps (CLI and bench):
//! the same two content-addressed stages the analysis server keeps —
//! assemble and analyze — minus the cross-request machinery.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crpd::AnalyzedProgram;
use rtcache::CacheGeometry;
use rtcli::CliError;
use rtprogram::Program;
use rtwcet::TimingModel;

/// Memoizes each task's assembled [`Program`] and its
/// [`AnalyzedProgram`] per `(task, geometry, model)`. Every lookup is
/// recorded as an rtobs stage lookup (`assemble` / `analyze`), so sweep
/// hit rates are measurable exactly like the server's `StageStore` path.
///
/// Assembly runs under the program map's lock, so it is single-flight:
/// the sweep warms one task under several geometries at once, and
/// assembly is cheap. Analyze misses compute outside the lock so
/// distinct artifacts build in parallel; the sweep engine pre-warms each
/// batch's unique combinations, so concurrent lookups for the *same*
/// analysis key only happen once the key is already present.
pub struct LocalStore {
    /// `(name, source)` per task, in spec order.
    tasks: Vec<(String, String)>,
    programs: Mutex<HashMap<usize, Arc<Program>>>,
    analyses: Mutex<HashMap<AnalysisKey, Arc<AnalyzedProgram>>>,
}

/// The analyze-stage key. The timing model enters through the miss
/// penalty — the only model axis a sweep varies.
type AnalysisKey = (usize, CacheGeometry, u64);

impl LocalStore {
    /// Creates a store over the sweep's tasks: `(name, assembly source)`
    /// in spec order.
    pub fn new(tasks: Vec<(String, String)>) -> Self {
        LocalStore { tasks, programs: Mutex::default(), analyses: Mutex::default() }
    }

    /// Number of tasks the store serves.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    fn program(&self, task: usize) -> Result<Arc<Program>, CliError> {
        let mut programs = self.programs.lock().expect("program store");
        if let Some(hit) = programs.get(&task) {
            rtobs::record_stage_lookup("assemble", true);
            return Ok(Arc::clone(hit));
        }
        rtobs::record_stage_lookup("assemble", false);
        let (name, source) = &self.tasks[task];
        let program = {
            let _span = rtobs::span_labeled("assemble", || name.clone());
            rtprogram::asm::assemble(name, source)
                .map_err(|e| CliError::Asm(format!("{name}: {e}")))?
        };
        let program = Arc::new(program);
        programs.insert(task, Arc::clone(&program));
        Ok(program)
    }

    /// The analyzed artifact of `task` under `(geometry, model)`,
    /// computed on first request and served from the store afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Asm`] or [`CliError::Analysis`] when the
    /// underlying stage fails; failures are not cached.
    pub fn analyzed_program(
        &self,
        task: usize,
        geometry: CacheGeometry,
        model: TimingModel,
    ) -> Result<Arc<AnalyzedProgram>, CliError> {
        let key: AnalysisKey = (task, geometry, model.miss_penalty);
        if let Some(hit) = self.analyses.lock().expect("analysis store").get(&key) {
            rtobs::record_stage_lookup("analyze", true);
            return Ok(Arc::clone(hit));
        }
        rtobs::record_stage_lookup("analyze", false);
        let program = self.program(task)?;
        let analyzed = AnalyzedProgram::analyze(&program, geometry, model)
            .map_err(|e| CliError::Analysis(e.to_string()))?;
        let mut analyses = self.analyses.lock().expect("analysis store");
        Ok(Arc::clone(analyses.entry(key).or_insert_with(|| Arc::new(analyzed))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = ".data 0x100000\nbuf: .word 1,2\n.text 0x1000\n\
                       start: li r1, buf\nld r2, 0(r1)\nhalt\n";

    #[test]
    fn memoizes_per_task_geometry_and_model() {
        let _serial = crate::obs_serial();
        let store = LocalStore::new(vec![("a".into(), SRC.into())]);
        let g64 = CacheGeometry::new(64, 2, 16).unwrap();
        let g32 = CacheGeometry::new(32, 2, 16).unwrap();
        let m20 = TimingModel::with_miss_penalty(20);
        let m40 = TimingModel::with_miss_penalty(40);
        let first = store.analyzed_program(0, g64, m20).unwrap();
        let again = store.analyzed_program(0, g64, m20).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "repeat lookups share the artifact");
        let other_geom = store.analyzed_program(0, g32, m20).unwrap();
        assert!(!Arc::ptr_eq(&first, &other_geom), "geometry is part of the key");
        let other_model = store.analyzed_program(0, g64, m40).unwrap();
        assert!(!Arc::ptr_eq(&first, &other_model), "the model is part of the key");
        assert_ne!(first.fingerprint(), other_geom.fingerprint());
    }

    #[test]
    fn assembly_errors_surface_and_are_not_cached() {
        let _serial = crate::obs_serial();
        let store = LocalStore::new(vec![("bad".into(), "not assembly".into())]);
        let g = CacheGeometry::new(64, 2, 16).unwrap();
        let err = store.analyzed_program(0, g, TimingModel::default()).unwrap_err();
        assert!(matches!(err, CliError::Asm(_)), "{err}");
        // Still fails (and still reports the assembler) on retry.
        assert!(store.analyzed_program(0, g, TimingModel::default()).is_err());
    }
}

//! Analyzed tasks: a program plus everything the CRPD/WCRT analysis needs.
//!
//! The analysis artifacts are split into two layers so that scheduling
//! parameters never invalidate cache-state work:
//!
//! * [`AnalyzedProgram`] — the params-free artifact: per-variant
//!   [`UsefulTrace`]s, per-path and union [`Ciip`] footprints with their
//!   [`PackedFootprint`]s (every accepted geometry packs), and the WCET. It depends only on `(program content, geometry, model)` and
//!   carries a 128-bit content [`AnalyzedProgram::fingerprint`] over
//!   exactly those inputs, so it can be content-addressed in artifact
//!   stores and reused across parameter sweeps.
//! * [`AnalyzedTask`] — a thin binding of an `Arc<AnalyzedProgram>` plus
//!   [`TaskParams`]. Rebinding new params ([`AnalyzedTask::rebind`]) is
//!   O(1) and shares the underlying artifact.

use std::fmt;
use std::sync::Arc;

use rtcache::{CacheGeometry, Ciip, PackedFootprint};
use rtprogram::Program;
use rtwcet::{estimate_wcet, TimingModel};

use crate::intra::UsefulTrace;
use crate::AnalysisError;

/// Scheduling parameters of a task (paper Table I). Smaller `priority`
/// values denote **higher** priority (MR, priority 2, preempts OFDM,
/// priority 4).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TaskParams {
    /// Task period in cycles; the deadline equals the period (§III-A).
    pub period: u64,
    /// Fixed priority; smaller is higher.
    pub priority: u32,
}

/// 128-bit content hash over length-prefixed fields: two independent
/// 64-bit FNV-1a streams (distinct offset bases, the second fed a
/// bytewise-transformed copy of the input) concatenated into a `u128`.
///
/// Each field is prefixed with its little-endian 64-bit length, so field
/// boundaries are part of the content — `["ab","c"]` and `["a","bc"]`
/// hash differently. A single 64-bit FNV is birthday-bound at ~2³²
/// artifacts; the doubled stream pushes collisions beyond anything a
/// long-running artifact server will hold.
pub fn content_hash128<'a>(fields: impl IntoIterator<Item = &'a [u8]>) -> u128 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const BASIS_LO: u64 = 0xcbf2_9ce4_8422_2325;
    // Low half of the 128-bit FNV offset basis — independent of BASIS_LO.
    const BASIS_HI: u64 = 0x6c62_272e_07bb_0142;
    let (mut lo, mut hi) = (BASIS_LO, BASIS_HI);
    let mut eat = |byte: u8| {
        lo = (lo ^ u64::from(byte)).wrapping_mul(PRIME);
        hi = (hi ^ u64::from(byte ^ 0xa5)).wrapping_mul(PRIME);
    };
    for field in fields {
        for byte in (field.len() as u64).to_le_bytes() {
            eat(byte);
        }
        for &byte in field {
            eat(byte);
        }
    }
    (u128::from(hi) << 64) | u128::from(lo)
}

/// The 128-bit content key of an analysis artifact: everything
/// [`AnalyzedProgram::analyze`] depends on — the program name, its
/// canonical disassembly, entry point, every input variant (name and
/// writes; the disassembly does not list variants), the cache geometry
/// and the timing model.
pub fn program_fingerprint(program: &Program, geometry: CacheGeometry, model: TimingModel) -> u128 {
    let listing = rtprogram::asm::disassemble(program);
    let mut fields: Vec<Vec<u8>> = vec![
        program.name().as_bytes().to_vec(),
        listing.into_bytes(),
        program.entry().to_le_bytes().to_vec(),
        format!("{geometry:?}").into_bytes(),
        format!("{model:?}").into_bytes(),
    ];
    for variant in program.variants() {
        fields.push(variant.name.as_bytes().to_vec());
        let mut writes = Vec::with_capacity(variant.writes.len() * 12);
        for (addr, value) in &variant.writes {
            writes.extend_from_slice(&addr.to_le_bytes());
            writes.extend_from_slice(&value.to_le_bytes());
        }
        fields.push(writes);
    }
    content_hash128(fields.iter().map(Vec::as_slice))
}

/// The params-free analysis artifact of one program under one cache
/// geometry and timing model: per-feasible-path traces with hit
/// classification, the union footprint `M`, per-path footprints `M^k`,
/// and the program's WCET.
///
/// Scheduling parameters are deliberately absent — bind them with
/// [`AnalyzedTask::bind`]. This is the unit of content-addressed caching:
/// two tasks with the same program, geometry and model share one
/// `AnalyzedProgram` regardless of their periods and priorities.
#[derive(Debug, Clone)]
pub struct AnalyzedProgram {
    name: String,
    wcet: u64,
    geometry: CacheGeometry,
    model: TimingModel,
    fingerprint: u128,
    /// One entry per input variant (feasible path).
    paths: Vec<AnalyzedPath>,
    /// Union footprint over all paths (`Ma`).
    all_blocks: Ciip,
    /// `all_blocks` packed for the dense Eq. 2 kernel.
    all_packed: PackedFootprint,
}

/// One feasible path's artifacts.
#[derive(Debug, Clone)]
pub struct AnalyzedPath {
    /// Variant name.
    pub name: String,
    /// Block-level trace with hit flags (drives the useful-block sweep).
    pub trace: UsefulTrace,
    /// The path's footprint (`M^k` in §VI).
    pub blocks: Ciip,
    /// `blocks` packed for the dense Eq. 3 kernel.
    pub packed: PackedFootprint,
}

impl AnalyzedProgram {
    /// Simulates every feasible path of `program`, classifies its accesses
    /// against a cold cache and estimates the WCET.
    ///
    /// The WCET estimation and the per-variant trace analyses are
    /// independent, so they fan out over the current [`rtpar`] pool; the
    /// union footprint is folded in variant order afterwards, keeping the
    /// artifact byte-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] if a path simulation faults.
    pub fn analyze(
        program: &Program,
        geometry: CacheGeometry,
        model: TimingModel,
    ) -> Result<Self, AnalysisError> {
        let _span = rtobs::span_labeled("analyze", || program.name().to_string());
        let (wcet, traced) = rtpar::join(
            || {
                let _span = rtobs::span_labeled("wcet", || program.name().to_string());
                estimate_wcet(program, geometry, model).map_err(|e| AnalysisError::Wcet {
                    task: program.name().to_string(),
                    source: e,
                })
            },
            || {
                rtpar::par_map(program.variants(), |variant| {
                    let _span = rtobs::span_labeled("trace", || {
                        format!("{}/{}", program.name(), variant.name)
                    });
                    let trace =
                        rtprogram::sim::trace_variant(program, variant).map_err(|source| {
                            AnalysisError::Exec { task: program.name().to_string(), source }
                        })?;
                    let trace = UsefulTrace::from_trace(&trace, geometry);
                    let blocks = trace.all_blocks();
                    let packed = PackedFootprint::from_ciip(&blocks);
                    Ok(AnalyzedPath { name: variant.name.clone(), trace, blocks, packed })
                })
            },
        );
        let wcet = wcet?;
        let ciip_span = rtobs::span_labeled("ciip", || program.name().to_string());
        let mut paths = Vec::with_capacity(traced.len());
        let mut all_blocks = Ciip::empty(geometry);
        for path in traced {
            let path: AnalyzedPath = path?;
            all_blocks = all_blocks.union(&path.blocks);
            paths.push(path);
        }
        let all_packed = {
            let _pack = rtobs::span_labeled("ciip_pack", || program.name().to_string());
            PackedFootprint::from_ciip(&all_blocks)
        };
        drop(ciip_span);
        Ok(AnalyzedProgram {
            name: program.name().to_string(),
            wcet: wcet.cycles,
            geometry,
            model,
            fingerprint: program_fingerprint(program, geometry, model),
            paths,
            all_blocks,
            all_packed,
        })
    }

    /// Rebuilds an artifact from its deterministic core: the name, WCET,
    /// fingerprint and per-path classified access sequences. perfbench's
    /// traced `cold_paper` op, which times each layer through its public
    /// calls, uses it to turn the traced pieces back into the artifact.
    ///
    /// Everything else — per-path CIIPs, packed footprints, skylines and
    /// the union footprint — is a deterministic function of `(geometry,
    /// accesses)` and is recomputed here exactly as [`analyze`] computes
    /// it (same fold order), so the result is indistinguishable from the
    /// original. The fingerprint *cannot* be recomputed without the
    /// program, so the caller must only pass one it obtained from a
    /// trusted [`AnalyzedProgram::fingerprint`] for the same inputs.
    ///
    /// [`analyze`]: AnalyzedProgram::analyze
    pub fn from_parts(
        name: String,
        wcet: u64,
        geometry: CacheGeometry,
        model: TimingModel,
        fingerprint: u128,
        path_accesses: Vec<(String, Vec<(rtcache::MemoryBlock, bool)>)>,
    ) -> Self {
        let mut paths = Vec::with_capacity(path_accesses.len());
        let mut all_blocks = Ciip::empty(geometry);
        for (path_name, accesses) in path_accesses {
            let trace = UsefulTrace::from_accesses(geometry, accesses);
            let blocks = trace.all_blocks();
            let packed = PackedFootprint::from_ciip(&blocks);
            all_blocks = all_blocks.union(&blocks);
            paths.push(AnalyzedPath { name: path_name, trace, blocks, packed });
        }
        let all_packed = PackedFootprint::from_ciip(&all_blocks);
        AnalyzedProgram { name, wcet, geometry, model, fingerprint, paths, all_blocks, all_packed }
    }

    /// The program (task) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The WCET in cycles (without preemption costs), per Eq. 6's `C_i`.
    pub fn wcet(&self) -> u64 {
        self.wcet
    }

    /// The cache geometry the analysis ran under.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// The timing model the analysis ran under.
    pub fn model(&self) -> TimingModel {
        self.model
    }

    /// The 128-bit content key of this artifact (see
    /// [`program_fingerprint`]): equal fingerprints mean equal program
    /// content, geometry and model, so analysis results are
    /// interchangeable.
    pub fn fingerprint(&self) -> u128 {
        self.fingerprint
    }

    /// Per-feasible-path artifacts.
    pub fn paths(&self) -> &[AnalyzedPath] {
        &self.paths
    }

    /// The union footprint `Ma` over all feasible paths.
    pub fn all_blocks(&self) -> &Ciip {
        &self.all_blocks
    }

    /// The union footprint packed for the dense Eq. 2 kernel. Built once
    /// at analysis time.
    pub fn all_blocks_packed(&self) -> &PackedFootprint {
        &self.all_packed
    }

    /// Approach 3's per-task reload count: the maximum over feasible paths
    /// and execution points of `Σ_r min(|useful_r|, L)` (Definition 4
    /// evaluated per path), read off each path's skyline where one was
    /// built.
    pub fn useful_line_bound(&self) -> usize {
        let _span = rtobs::span_labeled("mumbs", || format!("{}: line bound", self.name));
        self.paths.iter().map(|p| p.trace.peak_line_bound()).max().unwrap_or(0)
    }

    /// The maximum useful memory blocks set (`M̃a`, Definition 4): the
    /// useful set at the worst execution point of the worst path.
    pub fn mumbs(&self) -> Ciip {
        let _span = rtobs::span_labeled("mumbs", || self.name.clone());
        self.paths
            .iter()
            .map(|p| p.trace.mumbs())
            .max_by_key(Ciip::line_bound)
            .unwrap_or_else(|| Ciip::empty(self.geometry))
    }

    /// The combined bound of §V–VI against a preempting footprint `mb`:
    /// maximum over this program's paths and execution points of
    /// `S(useful(t), mb)`.
    ///
    /// Packs `mb` once and searches each path's dominance-pruned skyline
    /// (see [`AnalyzedProgram::max_useful_overlap_packed`]).
    pub fn max_useful_overlap(&self, mb: &Ciip) -> usize {
        self.max_useful_overlap_packed(&PackedFootprint::from_ciip(mb))
    }

    /// [`AnalyzedProgram::max_useful_overlap`] against an already-packed
    /// preempting footprint, skipping the per-call packing — the hot form
    /// used by the Approach 4 matrix loop, where the preemptor's per-path
    /// footprints are packed once at analysis time.
    ///
    /// # Panics
    ///
    /// Panics if `mb` was packed for a different geometry.
    pub fn max_useful_overlap_packed(&self, mb: &PackedFootprint) -> usize {
        let _span = rtobs::span_labeled("mumbs", || format!("{}: overlap", self.name));
        self.paths.iter().map(|p| p.trace.max_packed_overlap(mb)).max().unwrap_or(0)
    }
}

/// A schedulable task: a shared [`AnalyzedProgram`] artifact bound to
/// [`TaskParams`]. Cloning or [`rebind`](AnalyzedTask::rebind)ing shares
/// the artifact; only the thin params differ.
#[derive(Debug, Clone)]
pub struct AnalyzedTask {
    program: Arc<AnalyzedProgram>,
    params: TaskParams,
}

impl AnalyzedTask {
    /// Analyzes `program` and binds `params` in one step — the
    /// convenience constructor for callers without an artifact store.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError`] if a path simulation faults.
    pub fn analyze(
        program: &Program,
        params: TaskParams,
        geometry: CacheGeometry,
        model: TimingModel,
    ) -> Result<Self, AnalysisError> {
        Ok(Self::bind(Arc::new(AnalyzedProgram::analyze(program, geometry, model)?), params))
    }

    /// Binds scheduling parameters to an existing analysis artifact.
    /// O(1); no pipeline stage re-runs.
    pub fn bind(program: Arc<AnalyzedProgram>, params: TaskParams) -> Self {
        AnalyzedTask { program, params }
    }

    /// This task with different scheduling parameters, sharing the same
    /// underlying artifact. O(1); no pipeline stage re-runs.
    pub fn rebind(&self, params: TaskParams) -> Self {
        AnalyzedTask { program: Arc::clone(&self.program), params }
    }

    /// Binds one parameter set per artifact in index order — the batch
    /// entry point for parameter sweeps, where a sweep point supplies a
    /// fresh `TaskParams` vector over the same cached
    /// [`AnalyzedProgram`]s. O(n) `Arc` clones; no pipeline stage
    /// re-runs.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn bind_all(programs: &[Arc<AnalyzedProgram>], params: &[TaskParams]) -> Vec<AnalyzedTask> {
        assert_eq!(
            programs.len(),
            params.len(),
            "bind_all needs exactly one parameter set per program"
        );
        programs
            .iter()
            .zip(params)
            .map(|(program, params)| AnalyzedTask::bind(Arc::clone(program), params.clone()))
            .collect()
    }

    /// The shared params-free analysis artifact.
    pub fn program(&self) -> &Arc<AnalyzedProgram> {
        &self.program
    }

    /// The task name.
    pub fn name(&self) -> &str {
        self.program.name()
    }

    /// Scheduling parameters.
    pub fn params(&self) -> &TaskParams {
        &self.params
    }

    /// The task's WCET in cycles (without preemption costs), per Eq. 6's
    /// `C_i`.
    pub fn wcet(&self) -> u64 {
        self.program.wcet()
    }

    /// The cache geometry the analysis ran under.
    pub fn geometry(&self) -> CacheGeometry {
        self.program.geometry()
    }

    /// The content fingerprint of the underlying [`AnalyzedProgram`].
    pub fn fingerprint(&self) -> u128 {
        self.program.fingerprint()
    }

    /// Per-feasible-path artifacts.
    pub fn paths(&self) -> &[AnalyzedPath] {
        self.program.paths()
    }

    /// The union footprint `Ma` over all feasible paths.
    pub fn all_blocks(&self) -> &Ciip {
        self.program.all_blocks()
    }

    /// The union footprint packed for the dense Eq. 2 kernel.
    pub fn all_blocks_packed(&self) -> &PackedFootprint {
        self.program.all_blocks_packed()
    }

    /// Approach 3's per-task reload count: the maximum over feasible paths
    /// and execution points of `Σ_r min(|useful_r|, L)` (Definition 4
    /// evaluated per path).
    pub fn useful_line_bound(&self) -> usize {
        self.program.useful_line_bound()
    }

    /// The maximum useful memory blocks set (`M̃a`, Definition 4): the
    /// useful set at the worst execution point of the worst path.
    pub fn mumbs(&self) -> Ciip {
        self.program.mumbs()
    }

    /// The combined bound of §V–VI against a preempting footprint `mb`:
    /// maximum over this task's paths and execution points of
    /// `S(useful(t), mb)`.
    pub fn max_useful_overlap(&self, mb: &Ciip) -> usize {
        self.program.max_useful_overlap(mb)
    }

    /// [`AnalyzedTask::max_useful_overlap`] against an already-packed
    /// preempting footprint (no per-call packing).
    ///
    /// # Panics
    ///
    /// Panics if `mb` was packed for a different geometry.
    pub fn max_useful_overlap_packed(&self, mb: &PackedFootprint) -> usize {
        self.program.max_useful_overlap_packed(mb)
    }
}

impl fmt::Display for AnalyzedTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: C={} cycles, P={}, prio={}, footprint={} lines",
            self.name(),
            self.wcet(),
            self.params.period,
            self.params.priority,
            self.all_blocks().line_bound()
        )
    }
}

// The analysis server shares `Arc<AnalyzedProgram>` across worker
// threads; keep the artifacts thread-safe by construction.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AnalyzedProgram>();
    assert_send_sync::<AnalyzedTask>();
    assert_send_sync::<AnalyzedPath>();
    assert_send_sync::<TaskParams>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use rtcache::CacheGeometry;

    fn analyze(p: &Program) -> AnalyzedTask {
        AnalyzedTask::analyze(
            p,
            TaskParams { period: 1_000_000, priority: 1 },
            CacheGeometry::paper_l1(),
            TimingModel::default(),
        )
        .unwrap()
    }

    #[test]
    fn paths_cover_variants() {
        let p = rtworkloads::edge_detection_with_dim(8);
        let t = analyze(&p);
        assert_eq!(t.paths().len(), 2);
        assert_eq!(t.paths()[0].name, "sobel");
        assert!(t.wcet() > 0);
    }

    #[test]
    fn union_footprint_contains_each_path() {
        let p = rtworkloads::edge_detection_with_dim(8);
        let t = analyze(&p);
        for path in t.paths() {
            for b in path.blocks.blocks() {
                assert!(t.all_blocks().contains(b));
            }
        }
        // The Cauchy path touches tables the Sobel path does not, so the
        // union is strictly larger than the Sobel footprint.
        assert!(t.all_blocks().block_count() > t.paths()[0].blocks.block_count());
    }

    #[test]
    fn useful_bound_at_most_footprint() {
        let p = rtworkloads::mobile_robot();
        let t = analyze(&p);
        assert!(t.useful_line_bound() <= t.all_blocks().line_bound());
        assert!(t.useful_line_bound() > 0, "a looping task reuses blocks");
    }

    #[test]
    fn useful_line_bound_matches_the_exact_sweep_on_the_paper_systems() {
        // Approach 3 reads the bound off each path's skyline; the exact
        // backward sweep is the reference it must equal.
        let geometries = [
            CacheGeometry::new(16, 1, 16).unwrap(),
            CacheGeometry::new(16, 2, 16).unwrap(),
            CacheGeometry::new(64, 2, 16).unwrap(),
            CacheGeometry::paper_l1(),
        ];
        for program in rtworkloads::experiment1().iter().chain(&rtworkloads::experiment2()) {
            for geometry in geometries {
                let t =
                    AnalyzedProgram::analyze(program, geometry, TimingModel::default()).unwrap();
                let exact = t.paths().iter().map(|p| p.trace.max_line_bound().0).max().unwrap();
                assert_eq!(t.useful_line_bound(), exact, "{} at {geometry:?}", t.name());
            }
        }
    }

    #[test]
    fn mumbs_is_a_subset_of_the_footprint() {
        let p = rtworkloads::mobile_robot();
        let t = analyze(&p);
        let mumbs = t.mumbs();
        for b in mumbs.blocks() {
            assert!(t.all_blocks().contains(b));
        }
    }

    #[test]
    fn overlap_bound_never_exceeds_either_side() {
        let p1 = rtworkloads::mobile_robot();
        let p2 = rtworkloads::edge_detection_with_dim(8);
        let a = analyze(&p1);
        let b = analyze(&p2);
        let s = a.max_useful_overlap(b.all_blocks());
        assert!(s <= a.useful_line_bound());
        assert!(s <= b.all_blocks().line_bound());
    }

    #[test]
    fn from_parts_round_trips_the_whole_artifact() {
        // The deterministic-core contract: keeping only (name, wcet,
        // fingerprint, per-path access sequences) and rebuilding with
        // `from_parts` must reproduce the artifact exactly — CIIPs,
        // packed footprints and skylines included. Debug formatting
        // covers every field, private ones included.
        for p in [rtworkloads::mobile_robot(), rtworkloads::edge_detection_with_dim(8)] {
            let geometry = CacheGeometry::paper_l1();
            let model = TimingModel::default();
            let original = AnalyzedProgram::analyze(&p, geometry, model).unwrap();
            let core: Vec<(String, Vec<(rtcache::MemoryBlock, bool)>)> = original
                .paths()
                .iter()
                .map(|path| (path.name.clone(), path.trace.accesses().to_vec()))
                .collect();
            let rebuilt = AnalyzedProgram::from_parts(
                original.name().to_string(),
                original.wcet(),
                geometry,
                model,
                original.fingerprint(),
                core,
            );
            assert_eq!(format!("{original:?}"), format!("{rebuilt:?}"), "{}", p.name());
        }
    }

    #[test]
    fn display_mentions_wcet() {
        let p = rtworkloads::mobile_robot();
        let t = analyze(&p);
        assert!(t.to_string().contains("mr"));
        assert!(t.to_string().contains("cycles"));
    }

    #[test]
    fn rebind_shares_the_artifact_and_changes_only_params() {
        let p = rtworkloads::mobile_robot();
        let t1 = analyze(&p);
        let t2 = t1.rebind(TaskParams { period: 42, priority: 9 });
        assert!(Arc::ptr_eq(t1.program(), t2.program()), "rebind must share the artifact");
        assert_eq!(t2.params(), &TaskParams { period: 42, priority: 9 });
        assert_eq!(t1.wcet(), t2.wcet());
        assert_eq!(t1.fingerprint(), t2.fingerprint());
        assert_eq!(t1.params().period, 1_000_000, "the original binding is untouched");
    }

    #[test]
    fn bind_all_shares_artifacts_in_index_order() {
        let mr = analyze(&rtworkloads::mobile_robot());
        let ed = analyze(&rtworkloads::edge_detection_with_dim(8));
        let programs = vec![Arc::clone(mr.program()), Arc::clone(ed.program())];
        let params = vec![
            TaskParams { period: 100_000, priority: 2 },
            TaskParams { period: 800_000, priority: 3 },
        ];
        let bound = AnalyzedTask::bind_all(&programs, &params);
        assert_eq!(bound.len(), 2);
        for (i, task) in bound.iter().enumerate() {
            assert!(Arc::ptr_eq(task.program(), &programs[i]), "bind_all must share artifacts");
            assert_eq!(task.params(), &params[i]);
        }
        assert_eq!(bound[0].name(), mr.name());
        assert_eq!(bound[1].name(), ed.name());
    }

    #[test]
    #[should_panic(expected = "one parameter set per program")]
    fn bind_all_rejects_mismatched_lengths() {
        let mr = analyze(&rtworkloads::mobile_robot());
        AnalyzedTask::bind_all(&[Arc::clone(mr.program())], &[]);
    }

    #[test]
    fn content_hash_is_length_prefixed_and_two_streamed() {
        // Field boundaries are content.
        assert_ne!(
            content_hash128([b"ab".as_slice(), b"c"]),
            content_hash128([b"a".as_slice(), b"bc"])
        );
        assert_ne!(content_hash128([b"x".as_slice()]), content_hash128([b"y".as_slice()]));
        assert_eq!(content_hash128([b"x".as_slice()]), content_hash128([b"x".as_slice()]));
        // The two streams are independent: equal low halves (single FNV-1a
        // collision surface) must not imply equal high halves.
        let h = content_hash128([b"x".as_slice()]);
        assert_ne!((h >> 64) as u64, h as u64);
    }

    #[test]
    fn fingerprint_distinguishes_every_analysis_input() {
        let g = CacheGeometry::paper_l1();
        let m = TimingModel::default();
        let mr = rtworkloads::mobile_robot();
        let ed = rtworkloads::edge_detection_with_dim(8);
        let base = program_fingerprint(&mr, g, m);
        assert_ne!(base, program_fingerprint(&ed, g, m), "different programs");
        assert_ne!(
            base,
            program_fingerprint(&mr, CacheGeometry::new(64, 2, 16).unwrap(), m),
            "different geometry"
        );
        assert_ne!(
            base,
            program_fingerprint(&mr, g, TimingModel::with_miss_penalty(40)),
            "different timing model"
        );
        assert_eq!(base, program_fingerprint(&mr, g, m), "fingerprints are deterministic");
        assert_eq!(base, analyze(&mr).fingerprint(), "analyze records the same fingerprint");
    }

    #[test]
    fn fingerprint_covers_variants_not_just_the_listing() {
        // `disassemble` does not list input variants, so two programs
        // differing only in variant writes must still get distinct keys.
        use rtprogram::InputVariant;
        let base = rtworkloads::mobile_robot();
        let variants: Vec<InputVariant> =
            base.variants().iter().cloned().map(|v| v.with_write(0x10_0000, 7)).collect();
        let tweaked = Program::new(
            base.name(),
            base.code_base(),
            base.code().to_vec(),
            base.data_segments().to_vec(),
            base.entry(),
            base.symbols().clone(),
            base.loop_bounds().clone(),
            variants,
        )
        .unwrap();
        let g = CacheGeometry::paper_l1();
        let m = TimingModel::default();
        assert_ne!(program_fingerprint(&base, g, m), program_fingerprint(&tweaked, g, m));
    }
}

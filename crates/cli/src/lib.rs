//! The logic behind the `trisc` command-line tool: assemble, run and
//! analyze TRISC task systems from the shell.
//!
//! Every subcommand is a plain function returning the text it would
//! print, so the whole surface is unit-testable without spawning
//! processes. The thin `trisc` binary ships with the `rtserver` crate
//! (which layers the `serve` daemon on top of this library) and only
//! touches stdio and the exit code.
//!
//! ```text
//! trisc asm    task.s                      # assemble + summary
//! trisc disasm task.s                      # canonical listing
//! trisc run    task.s [--variant NAME]     # execute, dump registers
//! trisc wcet   task.s [cache options]      # per-path WCET + bound
//! trisc crpd   low.s high.s [cache opts] [--trace-out T.json]
//! trisc wcrt   system.spec [--explain] [--trace-out T.json]
//! trisc sim    system.spec [--horizon N]   # co-simulation + timeline
//! trisc serve  [--host H] [--port P] [--threads N] [--event-threads N]
//!              [--max-inflight N] [--deadline-ms MS] [--idle-timeout-ms MS]
//!              [--trace-out T.json]
//! ```
//!
//! `--trace-out` installs an [`rtobs`] recording session for the run and
//! writes a Chrome `trace_event` JSON file (open in `chrome://tracing` or
//! Perfetto); `--explain` appends a per-task WCRT breakdown whose cycle
//! components sum to the reported `R_i`. Neither changes analysis output.
//!
//! (`serve` itself is implemented by the `rtserver` crate, which also
//! ships the `trisc` binary; everything else lives here.)
//!
//! Each spec-driven command — [`run_wcet`], [`run_footprint`],
//! [`run_crpd`], [`run_wcrt`], [`run_sim`] and `rtexplore::explore` — is
//! one function over an [`ArtifactStore`], a [`SystemSpec`] and the task
//! sources in spec order. The one-shot CLI reads the sources from disk
//! and runs against a fresh store; `trisc serve` resolves them from the
//! request and runs against its shared store. Either way the report
//! bytes are the same.
//!
//! [`store`] holds that memoized artifact DAG: one single-flight
//! [`crpd::StageStore`] per stage — `assemble`, `analyze` and the CRPD
//! cells (`crpd_cell`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::cast_possible_truncation)]

pub mod dispatch;
pub mod options;
pub mod spec;
pub mod store;

use std::borrow::Borrow;
use std::fmt::{self, Write as _};

use crpd::{
    analyze_all, reload_lines, AnalyzedTask, CrpdApproach, CrpdCellCache, CrpdMatrix, WcrtParams,
};
use rtcache::CacheGeometry;
use rtprogram::asm::{assemble, disassemble};
use rtprogram::isa::Reg;
use rtprogram::{Program, Simulator};
use rtsched::{render_timeline, simulate, CacheMode, SchedConfig, SchedTask, VariantPolicy};
use rtwcet::{estimate_wcet, structural_wcet_bound};

pub use dispatch::{dispatch, parse, with_recorder, Invocation, USAGE};
pub use options::{CacheOptions, CliError, ServeOptions, StatusOptions};
pub use spec::SystemSpec;
pub use store::ArtifactStore;
use store::TaskSource;

/// `trisc asm`: assemble and summarize a program.
///
/// # Errors
///
/// Returns [`CliError`] on assembly failure.
pub fn cmd_asm(name: &str, source: &str) -> Result<String, CliError> {
    let p = assemble(name, source).map_err(|e| CliError::Asm(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(out, "{p}");
    let _ =
        writeln!(out, "code: [{:#x}, {:#x}), entry {:#x}", p.code_base(), p.code_end(), p.entry());
    for seg in p.data_segments() {
        let _ = writeln!(
            out,
            "data: `{}` [{:#x}, {:#x}) = {} words",
            seg.name,
            seg.base,
            seg.end(),
            seg.words.len()
        );
    }
    for (sym, addr) in p.symbols() {
        let _ = writeln!(out, "symbol: {sym} = {addr:#x}");
    }
    for (addr, bound) in p.loop_bounds() {
        let _ = writeln!(out, "loop bound: {addr:#x} x {bound}");
    }
    Ok(out)
}

/// `trisc disasm`: assemble, then print the canonical listing.
///
/// # Errors
///
/// Returns [`CliError`] on assembly failure.
pub fn cmd_disasm(name: &str, source: &str) -> Result<String, CliError> {
    let p = assemble(name, source).map_err(|e| CliError::Asm(e.to_string()))?;
    Ok(disassemble(&p))
}

/// `trisc run`: execute a program (optionally under a named variant) and
/// report registers, steps and accesses.
///
/// # Errors
///
/// Returns [`CliError`] on assembly or execution failure, or an unknown
/// variant name.
pub fn cmd_run(name: &str, source: &str, variant: Option<&str>) -> Result<String, CliError> {
    let p = assemble(name, source).map_err(|e| CliError::Asm(e.to_string()))?;
    let mut sim = match variant {
        None => Simulator::new(&p),
        Some(v) => {
            let variant = p
                .variants()
                .iter()
                .find(|x| x.name == v)
                .ok_or_else(|| CliError::UnknownVariant(v.to_string()))?;
            Simulator::with_variant(&p, variant).map_err(|e| CliError::Exec(e.to_string()))?
        }
    };
    let trace = sim.run_to_halt().map_err(|e| CliError::Exec(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "halted after {} instructions ({} memory accesses)",
        trace.instructions,
        trace.accesses.len()
    );
    #[allow(clippy::cast_possible_truncation, reason = "the ISA has 16 registers")]
    for r in 0..Reg::COUNT as u8 {
        let reg = Reg::new(r);
        let _ = write!(out, "r{r:<2}={:<12}", sim.reg(reg));
        if r % 4 == 3 {
            out.push('\n');
        }
    }
    Ok(out)
}

/// `trisc wcet` and NDJSON `wcet`: per-path WCET plus the structural
/// all-miss bound of every task of `spec`, in spec order. A bound that
/// cannot be computed (say, one past `u64::MAX` cycles) is reported in
/// its place.
///
/// # Errors
///
/// Returns [`CliError`] on an invalid geometry, assembly or analysis
/// failure.
pub fn run_wcet(
    store: &ArtifactStore,
    spec: &SystemSpec,
    sources: &[String],
) -> Result<String, CliError> {
    let geometry = spec.cache.geometry()?;
    let model = spec.cache.model();
    let mut out = String::new();
    for task in TaskSource::of_spec(spec, sources) {
        let p = store.program(task)?;
        let est =
            estimate_wcet(&p, geometry, model).map_err(|e| CliError::Analysis(e.to_string()))?;
        let _ = writeln!(out, "WCET of `{}` under {geometry} ({model}):", task.name());
        for v in &est.per_variant {
            let _ = writeln!(
                out,
                "  path {:>12}: {:>9} cycles ({} instructions, {} misses)",
                v.name, v.cycles, v.instructions, v.misses
            );
        }
        let _ = writeln!(out, "  WCET = {} cycles (path `{}`)", est.cycles, est.worst_variant);
        let _ = match structural_wcet_bound(&p, model, 1) {
            Ok(bound) => writeln!(out, "  structural all-miss bound: {bound} cycles"),
            Err(e) => writeln!(out, "  structural all-miss bound: {e}"),
        };
    }
    Ok(out)
}

/// `trisc crpd` and NDJSON `crpd`: the four per-preemption reload bounds
/// for a two-task spec — the first task preempted, the second
/// preempting.
///
/// # Errors
///
/// Returns [`CliError::Spec`] unless the spec has exactly two tasks, and
/// [`CliError`] on an invalid geometry, assembly or analysis failure.
pub fn run_crpd(
    store: &ArtifactStore,
    spec: &SystemSpec,
    sources: &[String],
) -> Result<String, CliError> {
    let [_, _] = spec.tasks.as_slice() else {
        return Err(CliError::Spec(
            "crpd needs exactly two task lines: the preempted task, then the preempting task"
                .into(),
        ));
    };
    let tasks = store.spec_tasks(spec, sources)?;
    let (preempted, preempting) = (&tasks[0], &tasks[1]);
    let miss_penalty = spec.cache.cmiss;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cache lines `{}` must reload after one preemption by `{}` ({}):",
        preempted.name(),
        preempting.name(),
        preempted.geometry()
    );
    for approach in CrpdApproach::ALL {
        let lines = reload_lines(approach, preempted, preempting);
        let _ = writeln!(
            out,
            "  {approach}: {lines:>5} lines ({} cycles at Cmiss={miss_penalty})",
            reload_cycles(lines, miss_penalty),
        );
    }
    Ok(out)
}

/// The cycles `lines` reloads cost at `miss_penalty` (Eq. 5), in `u128`:
/// any `usize` line count times any `u64` penalty fits, so the product
/// never wraps.
fn reload_cycles(lines: usize, miss_penalty: u64) -> u128 {
    lines as u128 * u128::from(miss_penalty)
}

/// `trisc footprint`: cache-footprint report of every task of `spec` —
/// per-path block counts, line occupancy, useful-block lines, and the
/// per-set pressure histogram.
///
/// # Errors
///
/// Returns [`CliError`] on an invalid geometry, assembly or analysis
/// failure.
pub fn run_footprint(
    store: &ArtifactStore,
    spec: &SystemSpec,
    sources: &[String],
) -> Result<String, CliError> {
    let geometry = spec.cache.geometry()?;
    let mut out = String::new();
    for task in store.spec_tasks(spec, sources)? {
        write_footprint(&mut out, &task, geometry);
    }
    Ok(out)
}

fn write_footprint(out: &mut String, task: &AnalyzedTask, geometry: CacheGeometry) {
    let _ = writeln!(out, "cache footprint of `{}` under {geometry}:", task.name());
    for path in task.paths() {
        let _ = writeln!(
            out,
            "  path {:>12}: {:>5} blocks over {:>4} sets, {:>5} lines",
            path.name,
            path.blocks.block_count(),
            path.blocks.subset_count(),
            path.blocks.line_bound()
        );
    }
    let all = task.all_blocks();
    let _ = writeln!(
        out,
        "  union: {} blocks, {} lines of {} ({:.1}% of the cache)",
        all.block_count(),
        all.line_bound(),
        geometry.total_lines(),
        100.0 * all.line_bound() as f64 / geometry.total_lines() as f64
    );
    let _ = writeln!(
        out,
        "  useful (worst point over paths): {} lines; max set pressure {} of {} ways",
        task.useful_line_bound(),
        all.max_set_pressure(),
        geometry.ways()
    );
    let histogram = all.occupancy_histogram();
    let _ = writeln!(out, "  sets holding k blocks:");
    for (k, count) in histogram.iter().enumerate() {
        if *count > 0 {
            let _ = writeln!(out, "    k={k}: {count:>5} sets");
        }
    }
}

/// `trisc wcrt` and NDJSON `wcrt`: the WCRT table of every task of
/// `spec` under each approach ([`cmd_wcrt_cached`] over the store's
/// artifacts and cell cache), followed with `explain` by the per-task
/// Eq. 7 breakdown of `trisc wcrt --explain`.
///
/// # Errors
///
/// Returns [`CliError`] on an invalid geometry, assembly or analysis
/// failure.
pub fn run_wcrt(
    store: &ArtifactStore,
    spec: &SystemSpec,
    sources: &[String],
    explain: bool,
) -> Result<String, CliError> {
    let tasks = store.spec_tasks(spec, sources)?;
    let mut out = cmd_wcrt_cached(spec, &tasks, store.cells())?;
    if explain {
        write_breakdown(&mut out, spec, &tasks, store.cells());
    }
    Ok(out)
}

/// The WCRT table over already-analyzed tasks (`&[AnalyzedTask]`,
/// `&[Arc<AnalyzedTask>]`, …), bounding pairwise CRPD through `cells`:
/// cells whose `(approach, preempted, preempting)` content keys were
/// already bounded — by an earlier request against the same cache — are
/// reused instead of recomputed. The report is byte-identical whatever
/// the cache holds; the cache only changes *which* cells run.
///
/// # Errors
///
/// Returns [`CliError::Options`] for an invalid cache geometry.
pub fn cmd_wcrt_cached<T: Borrow<AnalyzedTask> + Sync>(
    spec: &SystemSpec,
    tasks: &[T],
    cells: &CrpdCellCache,
) -> Result<String, CliError> {
    let geometry = spec.cache.geometry()?;
    let model = spec.cache.model();
    let params = WcrtParams {
        miss_penalty: model.miss_penalty,
        ctx_switch: spec.ctx_switch,
        ..WcrtParams::default()
    };
    let mut out = String::new();
    let _ = writeln!(out, "WCRT under {geometry}, {} (Ccs={}):", model, spec.ctx_switch);
    let _ = writeln!(
        out,
        "  {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "task", "App. 1", "App. 2", "App. 3", "App. 4", "period"
    );
    // The four approaches are independent; fan them out over the current
    // rtpar pool (each cached matrix and its Eq. 7 loop run on the worker
    // that took the approach). Results land in approach order, so the
    // report bytes never depend on the pool size.
    let per_approach: Vec<Vec<crpd::WcrtResult>> = rtpar::par_map(&CrpdApproach::ALL, |a| {
        analyze_all(tasks, &CrpdMatrix::compute_with(*a, tasks, cells), &params)
    });
    for (i, t) in tasks.iter().map(Borrow::borrow).enumerate() {
        let cell = |a: usize| {
            let r = per_approach[a][i];
            if r.schedulable {
                r.cycles.to_string()
            } else if r.stop == crpd::StopReason::IterationCap {
                format!("{}!", r.cycles)
            } else {
                format!("{}*", r.cycles)
            }
        };
        let _ = writeln!(
            out,
            "  {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            t.name(),
            cell(0),
            cell(1),
            cell(2),
            cell(3),
            t.params().period
        );
    }
    let _ = writeln!(out, "  (*: not schedulable under that bound; !: iteration cap hit)");
    Ok(out)
}

/// How many cache sets the `--explain` breakdown names per preempting
/// task: the top contributors to the combined (App. 4) overlap bound.
const EXPLAIN_TOP_SETS: usize = 4;

/// The `--explain` half of [`run_wcrt`]: a per-task breakdown of every
/// approach's WCRT into its Eq. 7 terms — WCET, higher-priority
/// interference, CRPD reload cycles and context switches (the four
/// always sum to the reported `R_i`) — plus the cache sets contributing
/// most to the combined overlap bound per preempting task.
///
/// The breakdown is a deterministic recomputation
/// ([`crpd::explain_response_time`]) rather than recorder state, so the
/// output is byte-identical whether or not tracing is enabled. The
/// matrices come from `cells`, which already holds every cell the table
/// bounded.
fn write_breakdown(
    out: &mut String,
    spec: &SystemSpec,
    tasks: &[AnalyzedTask],
    cells: &CrpdCellCache,
) {
    let model = spec.cache.model();
    let params = WcrtParams {
        miss_penalty: model.miss_penalty,
        ctx_switch: spec.ctx_switch,
        ..WcrtParams::default()
    };
    let matrices: Vec<CrpdMatrix> =
        rtpar::par_map(&CrpdApproach::ALL, |a| CrpdMatrix::compute_with(*a, tasks, cells));
    let _ = writeln!(out, "\nWCRT breakdown (cycles; wcet + interference + crpd + ctx = R):");
    for (i, t) in tasks.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {} (C={}, period {}, priority {}):",
            t.name(),
            t.wcet(),
            t.params().period,
            t.params().priority
        );
        let breakdowns = matrices
            .iter()
            .map(|m| (m.approach, crpd::explain_response_time(tasks, m, i, &params)));
        write_explanation(out, breakdowns, tasks, i, EXPLAIN_TOP_SETS);
    }
}

/// Writes the body of one task's Eq. 7 explanation, shared by `trisc
/// wcrt --explain` and the `trisc explore` front: a `{label}: R=… = wcet
/// + interference + crpd + ctx (… preemptions, stop)` line per labelled
/// breakdown, then, per higher-priority task, the `top` cache sets that
/// contribute most to task `i`'s combined (App. 4) overlap bound.
pub fn write_explanation<L: fmt::Display, T: Borrow<AnalyzedTask>>(
    out: &mut String,
    breakdowns: impl IntoIterator<Item = (L, crpd::WcrtBreakdown)>,
    tasks: &[T],
    i: usize,
    top: usize,
) {
    for (label, b) in breakdowns {
        let _ = writeln!(
            out,
            "    {label}: R={} = {} + {} + {} + {} ({} preemptions, {})",
            b.result.cycles,
            b.wcet,
            b.interference,
            b.crpd,
            b.ctx_switch,
            b.preemptions,
            b.result.stop
        );
    }
    let t = tasks[i].borrow();
    for hp in tasks.iter().map(Borrow::borrow) {
        if hp.params().priority >= t.params().priority {
            continue;
        }
        let contributions = crpd::combined_overlap_breakdown(t, hp);
        if contributions.is_empty() {
            continue;
        }
        let shown: Vec<String> = contributions
            .iter()
            .take(top)
            .map(|c| format!("set {}: {} (min: {})", c.set.as_usize(), c.lines, c.cap.label()))
            .collect();
        let _ = writeln!(
            out,
            "    top sets vs `{}` (of {} overlapping): {}",
            hp.name(),
            contributions.len(),
            shown.join(", ")
        );
    }
}

/// `trisc sim` and NDJSON `sim`: run the co-simulation over `horizon`
/// cycles (default: twice the longest period, saturating at `u64::MAX`)
/// and report responses plus a timeline.
///
/// # Errors
///
/// Returns [`CliError`] on assembly failure, an invalid geometry or a
/// simulation failure.
pub fn run_sim(
    store: &ArtifactStore,
    spec: &SystemSpec,
    sources: &[String],
    horizon: Option<u64>,
) -> Result<String, CliError> {
    let sched_tasks = TaskSource::of_spec(spec, sources)
        .into_iter()
        .zip(&spec.tasks)
        .map(|(task, t)| {
            Ok(SchedTask::new(Program::clone(&*store.program(task)?), t.period, t.priority))
        })
        .collect::<Result<Vec<SchedTask>, CliError>>()?;
    let geometry = spec.cache.geometry()?;
    let horizon = horizon.unwrap_or_else(|| {
        spec.tasks.iter().map(|t| t.period).max().unwrap_or(1).saturating_mul(2)
    });
    let config = SchedConfig {
        geometry,
        model: spec.cache.model(),
        ctx_switch: spec.ctx_switch,
        horizon,
        variant_policy: VariantPolicy::Worst,
        cache_mode: CacheMode::Shared,
        replacement: Default::default(),
        l2: None,
    };
    let report = simulate(&sched_tasks, &config).map_err(|e| CliError::Sim(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(out, "simulated {} cycles:", report.end_time);
    for t in &report.tasks {
        let _ = writeln!(
            out,
            "  {:>10}: {} jobs, max response {}, {} preemptions, {} deadline misses",
            t.name, t.completed, t.max_response, t.preemptions, t.deadline_misses
        );
    }
    let names: Vec<&str> = report.tasks.iter().map(|t| t.name.as_str()).collect();
    let periods: Vec<u64> = spec.tasks.iter().map(|t| t.period).collect();
    out.push_str(&render_timeline(&report.slices, &names, &periods, horizon, 80));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNT: &str =
        "start: li r1, 5\nloop: addi r1, r1, -1\nbne r1, r0, loop\n.bound loop, 5\nhalt\n";

    #[test]
    fn asm_summarizes() {
        let out = cmd_asm("count", COUNT).unwrap();
        assert!(out.contains("program `count`"));
        assert!(out.contains("loop bound"));
        assert!(out.contains("symbol: loop"));
    }

    #[test]
    fn asm_reports_errors() {
        let err = cmd_asm("bad", "frobnicate r1\n").unwrap_err();
        assert!(matches!(err, CliError::Asm(_)));
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn disasm_round_trips() {
        let listing = cmd_disasm("count", COUNT).unwrap();
        let again = cmd_asm("count", &listing).unwrap();
        assert!(again.contains("program `count`"));
    }

    #[test]
    fn run_reports_registers() {
        let out = cmd_run("count", COUNT, None).unwrap();
        assert!(out.contains("halted after 12 instructions"));
        assert!(out.contains("r1 =0") || out.contains("r1 =0".trim()) || out.contains("r1"));
    }

    #[test]
    fn run_rejects_unknown_variant() {
        let err = cmd_run("count", COUNT, Some("nope")).unwrap_err();
        assert!(matches!(err, CliError::UnknownVariant(_)));
    }

    #[test]
    fn footprint_reports_lines_and_pressure() {
        let src = ".data 0x100000\nbuf: .word 1,2,3,4,5,6,7,8\n.text 0x1000\nstart: li r1, buf\nld r2, 0(r1)\nld r2, 16(r1)\nld r2, 0(r1)\nhalt\n";
        let (spec, sources) = inline("", &[("t", src, 1000, 1)]);
        let out = run_footprint(&ArtifactStore::default(), &spec, &sources).unwrap();
        assert!(out.contains("union:"), "{out}");
        assert!(out.contains("useful"), "{out}");
        assert!(out.contains("k=1"), "{out}");
    }

    const HI: &str = ".data 0x100000\nbuf: .word 1,2,3\n.text 0x1000\nstart: li r1, buf\nld r2, 0(r1)\nld r2, 0(r1)\nhalt\n";
    const LO: &str = ".data 0x100400\nbuf: .word 7\n.text 0x2000\nstart: li r1, buf\nld r2, 0(r1)\nld r2, 0(r1)\nhalt\n";

    /// A spec over inline sources: `(name, source)` per `task` line.
    fn inline(head: &str, tasks: &[(&str, &str, u64, u32)]) -> (SystemSpec, Vec<String>) {
        let mut text = head.to_string();
        for (name, _, period, priority) in tasks {
            text.push_str(&format!("task {name} {name}.s {period} {priority}\n"));
        }
        let spec = SystemSpec::parse(&text, std::path::Path::new("")).unwrap();
        (spec, tasks.iter().map(|t| t.1.to_string()).collect())
    }

    #[test]
    fn wcet_prints_paths_and_bound() {
        let (spec, sources) = inline("", &[("count", COUNT, 1000, 1)]);
        let out = run_wcet(&ArtifactStore::default(), &spec, &sources).unwrap();
        assert!(out.contains("WCET of `count`"), "{out}");
        assert!(out.contains("WCET ="));
        assert!(out.contains("structural all-miss bound"));
    }

    #[test]
    fn a_printed_structural_bound_is_never_below_the_wcet() {
        // Past ~u64::MAX / 10 the all-miss bound no longer fits; it must
        // say so rather than print a wrapped number below the WCET.
        for cmiss in [0u64, 20, 1 << 40, 1_844_674_407_370_955_161, 4_000_000_000_000_000_000] {
            let (spec, sources) = inline(&format!("cmiss {cmiss}\n"), &[("hi", HI, 1000, 1)]);
            let out = run_wcet(&ArtifactStore::default(), &spec, &sources).unwrap();
            let number = |prefix: &str| -> Option<u64> {
                let line = out.lines().find_map(|l| l.trim().strip_prefix(prefix))?;
                line.split(' ').next()?.parse().ok()
            };
            let wcet = number("WCET = ").expect("WCET line");
            match number("structural all-miss bound: ") {
                Some(bound) => assert!(bound >= wcet, "cmiss {cmiss}: {out}"),
                None => assert!(
                    out.contains("structural all-miss bound: cycle count overflows 64 bits"),
                    "cmiss {cmiss}: {out}"
                ),
            }
        }
    }

    #[test]
    fn explain_components_sum_to_the_reported_wcrt() {
        let (spec, sources) = inline(
            "cache 64 2 16\ncmiss 20\nccs 50\n",
            &[("hi", HI, 5000, 1), ("lo", LO, 50000, 2)],
        );
        let out = run_wcrt(&ArtifactStore::default(), &spec, &sources, true).unwrap();
        // Every breakdown line's four terms must sum to its R, exactly.
        let mut parsed = 0;
        for line in out.lines().filter(|l| l.trim_start().starts_with("App. ")) {
            let rest = line.split("R=").nth(1).unwrap();
            let r: u64 = rest.split(' ').next().unwrap().parse().unwrap();
            let terms = rest.split(" = ").nth(1).unwrap().split(" (").next().unwrap();
            let sum: u64 = terms.split(" + ").map(|t| t.trim().parse::<u64>().unwrap()).sum();
            assert_eq!(sum, r, "{line}");
            parsed += 1;
        }
        assert_eq!(parsed, 2 * CrpdApproach::ALL.len(), "{out}");
        // `lo` is preempted by `hi`; their footprints collide, so the
        // breakdown names the contributing sets.
        assert!(out.contains("top sets vs `hi`"), "{out}");
        // The table half is byte-identical to the plain report.
        let plain = run_wcrt(&ArtifactStore::default(), &spec, &sources, false).unwrap();
        assert!(out.starts_with(&plain), "explain must append, not rewrite");
    }

    #[test]
    fn crpd_prints_all_four_approaches() {
        let a = ".data 0x100000\nbuf: .word 1,2,3,4\n.text 0x1000\nstart: li r1, buf\nld r2, 0(r1)\nld r2, 4(r1)\nld r2, 0(r1)\nhalt\n";
        let b =
            ".data 0x100040\nbuf: .word 9\n.text 0x2000\nstart: li r1, buf\nld r2, 0(r1)\nhalt\n";
        let (spec, sources) = inline("", &[("low", a, 1000, 2), ("high", b, 1000, 1)]);
        let out = run_crpd(&ArtifactStore::default(), &spec, &sources).unwrap();
        assert!(out.starts_with("cache lines `low` must reload after one preemption by `high`"));
        for label in ["App. 1", "App. 2", "App. 3", "App. 4"] {
            assert!(out.contains(label), "{out}");
        }
        let (one, source) = inline("", &[("low", a, 1000, 1)]);
        let err = run_crpd(&ArtifactStore::default(), &one, &source).unwrap_err();
        assert!(err.to_string().contains("exactly two task lines"), "{err}");
    }

    #[test]
    fn reload_cycles_never_wrap() {
        assert_eq!(reload_cycles(3, 20), 60);
        assert_eq!(reload_cycles(0, u64::MAX), 0);
        let widest = reload_cycles(usize::MAX, u64::MAX);
        assert_eq!(widest, usize::MAX as u128 * u128::from(u64::MAX));
        assert!(widest > u128::from(u64::MAX), "a u64 product would have wrapped");
    }
}

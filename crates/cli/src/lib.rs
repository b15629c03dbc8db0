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
//!              [--slow-ms MS] [--flight-capacity N] [--trace-out T.json]
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
//! [`store`] holds the one memoized artifact DAG — single-flight
//! `assemble`/`analyze` stages plus the CRPD cell cache — shared by the
//! server's requests and by `trisc explore` sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dispatch;
pub mod options;
pub mod spec;
pub mod store;

use std::borrow::Borrow;
use std::fmt::Write as _;

use crpd::{
    analyze_all, reload_lines, AnalyzedTask, CrpdApproach, CrpdCellCache, CrpdMatrix, TaskParams,
    WcrtParams,
};
use rtprogram::asm::{assemble, disassemble};
use rtprogram::isa::Reg;
use rtprogram::{Program, Simulator};
use rtsched::{render_timeline, simulate, CacheMode, SchedConfig, SchedTask, VariantPolicy};
use rtwcet::{estimate_wcet, structural_wcet_bound};

pub use dispatch::{dispatch, parse, Invocation, USAGE};
pub use options::{CacheOptions, CliError, ServeOptions, StatusOptions};
pub use spec::SystemSpec;

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
    for r in 0..Reg::COUNT as u8 {
        let reg = Reg::new(r);
        let _ = write!(out, "r{r:<2}={:<12}", sim.reg(reg));
        if r % 4 == 3 {
            out.push('\n');
        }
    }
    Ok(out)
}

/// `trisc wcet`: per-path WCET plus the structural all-miss bound.
///
/// # Errors
///
/// Returns [`CliError`] on assembly or analysis failure.
pub fn cmd_wcet(name: &str, source: &str, opts: &CacheOptions) -> Result<String, CliError> {
    let p = assemble(name, source).map_err(|e| CliError::Asm(e.to_string()))?;
    let est = estimate_wcet(&p, opts.geometry()?, opts.model())
        .map_err(|e| CliError::Analysis(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(out, "WCET of `{name}` under {} ({}):", opts.geometry()?, opts.model());
    for v in &est.per_variant {
        let _ = writeln!(
            out,
            "  path {:>12}: {:>9} cycles ({} instructions, {} misses)",
            v.name, v.cycles, v.instructions, v.misses
        );
    }
    let _ = writeln!(out, "  WCET = {} cycles (path `{}`)", est.cycles, est.worst_variant);
    if let Ok(bound) = structural_wcet_bound(&p, opts.model(), 1) {
        let _ = writeln!(out, "  structural all-miss bound: {bound} cycles");
    }
    Ok(out)
}

/// `trisc crpd`: the four per-preemption reload bounds for a task pair.
///
/// # Errors
///
/// Returns [`CliError`] on assembly or analysis failure.
pub fn cmd_crpd(
    low: (&str, &str),
    high: (&str, &str),
    opts: &CacheOptions,
) -> Result<String, CliError> {
    let geometry = opts.geometry()?;
    let model = opts.model();
    let analyze = |name: &str, source: &str, priority: u32| -> Result<AnalyzedTask, CliError> {
        let p = assemble_named(name, source)?;
        AnalyzedTask::analyze(&p, TaskParams { period: u64::MAX, priority }, geometry, model)
            .map_err(|e| CliError::Analysis(e.to_string()))
    };
    let preempted = analyze(low.0, low.1, 2)?;
    let preempting = analyze(high.0, high.1, 1)?;
    Ok(cmd_crpd_with(&preempted, &preempting, opts))
}

/// The rendering half of [`cmd_crpd`], over already-analyzed tasks: used
/// by the analysis server, which reuses memoized [`AnalyzedTask`]
/// artifacts instead of re-analyzing per request. Both entry points emit
/// byte-identical reports for the same inputs.
pub fn cmd_crpd_with(
    preempted: &AnalyzedTask,
    preempting: &AnalyzedTask,
    opts: &CacheOptions,
) -> String {
    let geometry = preempted.geometry();
    let model = opts.model();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cache lines `{}` must reload after one preemption by `{}` ({geometry}):",
        preempted.name(),
        preempting.name()
    );
    for approach in CrpdApproach::ALL {
        let _ = writeln!(
            out,
            "  {approach}: {:>5} lines ({} cycles at Cmiss={})",
            reload_lines(approach, preempted, preempting),
            reload_lines(approach, preempted, preempting) as u64 * model.miss_penalty,
            model.miss_penalty
        );
    }
    out
}

/// `trisc footprint`: cache-footprint report for a program — per-path
/// block counts, line occupancy, useful-block lines, and the per-set
/// pressure histogram.
///
/// # Errors
///
/// Returns [`CliError`] on assembly or analysis failure.
pub fn cmd_footprint(name: &str, source: &str, opts: &CacheOptions) -> Result<String, CliError> {
    let geometry = opts.geometry()?;
    let p = assemble(name, source).map_err(|e| CliError::Asm(e.to_string()))?;
    let task = AnalyzedTask::analyze(
        &p,
        TaskParams { period: u64::MAX, priority: 1 },
        geometry,
        opts.model(),
    )
    .map_err(|e| CliError::Analysis(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(out, "cache footprint of `{name}` under {geometry}:");
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
    Ok(out)
}

/// `trisc wcrt`: WCRT of every task of a [`SystemSpec`] under each
/// approach.
///
/// # Errors
///
/// Returns [`CliError`] on spec, assembly or analysis failure.
pub fn cmd_wcrt(spec: &SystemSpec) -> Result<String, CliError> {
    let tasks = spec.analyzed_tasks()?;
    cmd_wcrt_with(spec, &tasks)
}

/// The rendering half of [`cmd_wcrt`], over already-analyzed tasks
/// (`&[AnalyzedTask]`, `&[Arc<AnalyzedTask>]`, …): used by the analysis
/// server, which reuses memoized artifacts instead of re-analyzing per
/// request. Both entry points emit byte-identical reports for the same
/// inputs.
///
/// # Errors
///
/// Returns [`CliError::Options`] for an invalid cache geometry.
pub fn cmd_wcrt_with<T: Borrow<AnalyzedTask> + Sync>(
    spec: &SystemSpec,
    tasks: &[T],
) -> Result<String, CliError> {
    cmd_wcrt_cached(spec, tasks, &CrpdCellCache::default())
}

/// [`cmd_wcrt_with`] through a shared [`CrpdCellCache`]: pairwise CRPD
/// bounds whose `(approach, preempted, preempting)` content keys were
/// already bounded — by an earlier request against the same cache — are
/// reused instead of recomputed. The report is byte-identical to the
/// uncached path; the cache only changes *which* cells run.
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
        max_iterations: 10_000,
    };
    let mut out = String::new();
    let _ = writeln!(out, "WCRT under {geometry}, {} (Ccs={}):", model, spec.ctx_switch);
    let _ = writeln!(
        out,
        "  {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "task", "App. 1", "App. 2", "App. 3", "App. 4", "period"
    );
    // The four approaches are independent; fan them out over the current
    // rtpar pool (matrix cells fan out again inside). Results land in
    // approach order, so the report bytes never depend on the pool size.
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

/// `trisc wcrt --explain`: the [`cmd_wcrt_with`] table followed by a
/// per-task breakdown of every approach's WCRT into its Eq. 7 terms —
/// WCET, higher-priority interference, CRPD reload cycles and context
/// switches (the four always sum to the reported `R_i`) — plus the cache
/// sets contributing most to the combined overlap bound per preempting
/// task.
///
/// The breakdown is a deterministic recomputation
/// ([`crpd::explain_response_time`]) rather than recorder state, so the
/// output is byte-identical whether or not tracing is enabled.
///
/// # Errors
///
/// Returns [`CliError::Options`] for an invalid cache geometry.
pub fn cmd_wcrt_explain<T: Borrow<AnalyzedTask> + Sync>(
    spec: &SystemSpec,
    tasks: &[T],
) -> Result<String, CliError> {
    // One cell cache spans the table and the breakdown, so the matrices
    // here are served entirely from the cells the table already bounded.
    let cells = CrpdCellCache::default();
    let mut out = cmd_wcrt_cached(spec, tasks, &cells)?;
    let model = spec.cache.model();
    let params = WcrtParams {
        miss_penalty: model.miss_penalty,
        ctx_switch: spec.ctx_switch,
        max_iterations: 10_000,
    };
    let matrices: Vec<CrpdMatrix> =
        rtpar::par_map(&CrpdApproach::ALL, |a| CrpdMatrix::compute_with(*a, tasks, &cells));
    let _ = writeln!(out, "\nWCRT breakdown (cycles; wcet + interference + crpd + ctx = R):");
    for (i, t) in tasks.iter().map(Borrow::borrow).enumerate() {
        let _ = writeln!(
            out,
            "  {} (C={}, period {}, priority {}):",
            t.name(),
            t.wcet(),
            t.params().period,
            t.params().priority
        );
        for matrix in &matrices {
            let b = crpd::explain_response_time(tasks, matrix, i, &params);
            let _ = writeln!(
                out,
                "    {}: R={} = {} + {} + {} + {} ({} preemptions, {})",
                matrix.approach,
                b.result.cycles,
                b.wcet,
                b.interference,
                b.crpd,
                b.ctx_switch,
                b.preemptions,
                b.result.stop
            );
        }
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
                .take(EXPLAIN_TOP_SETS)
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
    Ok(out)
}

/// `trisc sim`: run the co-simulation over `horizon` cycles (default:
/// twice the longest period) and report responses plus a timeline.
///
/// # Errors
///
/// Returns [`CliError`] on spec or simulation failure.
pub fn cmd_sim(spec: &SystemSpec, horizon: Option<u64>) -> Result<String, CliError> {
    let programs = spec.programs()?;
    cmd_sim_with(spec, &programs, horizon)
}

/// The simulation half of [`cmd_sim`], over already-assembled programs
/// (one per spec task, in spec order): used by the analysis server, whose
/// task sources arrive inline over the wire. Both entry points emit
/// byte-identical reports for the same inputs.
///
/// # Errors
///
/// Returns [`CliError`] on an invalid geometry or simulation failure.
pub fn cmd_sim_with(
    spec: &SystemSpec,
    programs: &[Program],
    horizon: Option<u64>,
) -> Result<String, CliError> {
    let geometry = spec.cache.geometry()?;
    let sched_tasks: Vec<SchedTask> = programs
        .iter()
        .zip(&spec.tasks)
        .map(|(p, t)| SchedTask::new(p.clone(), t.period, t.priority))
        .collect();
    let horizon =
        horizon.unwrap_or_else(|| spec.tasks.iter().map(|t| t.period).max().unwrap_or(1) * 2);
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

/// Loads a program from already-read source; helper shared by spec
/// loading.
pub(crate) fn assemble_named(name: &str, source: &str) -> Result<Program, CliError> {
    let _span = rtobs::span_labeled("assemble", || name.to_string());
    assemble(name, source).map_err(|e| CliError::Asm(e.to_string()))
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
        let out = cmd_footprint("t", src, &CacheOptions::default()).unwrap();
        assert!(out.contains("union:"), "{out}");
        assert!(out.contains("useful"), "{out}");
        assert!(out.contains("k=1"), "{out}");
    }

    #[test]
    fn wcet_prints_paths_and_bound() {
        let out = cmd_wcet("count", COUNT, &CacheOptions::default()).unwrap();
        assert!(out.contains("WCET ="));
        assert!(out.contains("structural all-miss bound"));
    }

    #[test]
    fn explain_components_sum_to_the_reported_wcrt() {
        let dir = std::env::temp_dir().join(format!("trisc-explain-lib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("hi.s"),
            ".data 0x100000\nbuf: .word 1,2,3\n.text 0x1000\nstart: li r1, buf\nld r2, 0(r1)\nld r2, 0(r1)\nhalt\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("lo.s"),
            ".data 0x100400\nbuf: .word 7\n.text 0x2000\nstart: li r1, buf\nld r2, 0(r1)\nld r2, 0(r1)\nhalt\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("sys.spec"),
            "cache 64 2 16\ncmiss 20\nccs 50\ntask hi hi.s 5000 1\ntask lo lo.s 50000 2\n",
        )
        .unwrap();
        let spec = SystemSpec::load(&dir.join("sys.spec")).unwrap();
        let tasks = spec.analyzed_tasks().unwrap();
        let out = cmd_wcrt_explain(&spec, &tasks).unwrap();
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
        let plain = cmd_wcrt_with(&spec, &tasks).unwrap();
        assert!(out.starts_with(&plain), "explain must append, not rewrite");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crpd_prints_all_four_approaches() {
        let low = "start: li r1, 0x100000\nld r2, 0(r1)\nld r2, 0(r1)\nhalt\n";
        // No data segment at 0x100000 -> would fault; use self-contained
        // programs instead.
        let _ = low;
        let a = ".data 0x100000\nbuf: .word 1,2,3,4\n.text 0x1000\nstart: li r1, buf\nld r2, 0(r1)\nld r2, 4(r1)\nld r2, 0(r1)\nhalt\n";
        let b =
            ".data 0x100040\nbuf: .word 9\n.text 0x2000\nstart: li r1, buf\nld r2, 0(r1)\nhalt\n";
        let out = cmd_crpd(("low", a), ("high", b), &CacheOptions::default()).unwrap();
        for label in ["App. 1", "App. 2", "App. 3", "App. 4"] {
            assert!(out.contains(label), "{out}");
        }
    }
}

//! CRPD kernel microbenchmark: the packed Eq. 2/3 min-sum against the
//! tree walk over `Ciip` maps, plus the skyline pruning ratio of every
//! paper workload's useful-block traces.
//!
//! ```text
//! cargo run --release -p rtbench --bin crpdbench            # full dims
//! cargo run --release -p rtbench --bin crpdbench -- --quick # CI smoke
//! ```
//!
//! Two measurement families, both on the paper's L1 geometry (512 sets,
//! 4 ways):
//!
//! 1. **Kernel**: `Ciip::overlap_bound` (BTreeMap walk) vs
//!    `PackedFootprint::overlap_bound` (dense chunked min-sum), on a
//!    synthetic dense footprint pair and on the union footprints of two
//!    analyzed workloads — the exact operands Approach 2 feeds the
//!    kernel. Every timed pair is first asserted to produce identical
//!    bounds.
//! 2. **Skyline**: per workload, how many candidate useful-footprint
//!    peaks the dominance pruning examined and how many Pareto-maximal
//!    points survived, plus packed-vs-tree timings of the Approach 3/4
//!    inner loop (`max_useful_overlap`) against a preemptor footprint.
//!
//! The numbers land in `BENCH_crpd_kernel.json` (`--json-out PATH` to
//! relocate). The run **fails** (exit non-zero, after publishing the
//! JSON) if the packed kernel is not faster than the tree walk on the
//! union-footprint case — the regression gate CI's bench-smoke job
//! enforces.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use crpd::{AnalyzedTask, TaskParams};
use rtcache::{CacheGeometry, Ciip, MemoryBlock, PackedFootprint};
use rtserver::json::Json;
use rtwcet::TimingModel;

struct Options {
    quick: bool,
    json_out: String,
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options { quick: false, json_out: "BENCH_crpd_kernel.json".to_string() };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--json-out" => {
                opts.json_out = args.next().ok_or("--json-out needs a value")?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

/// Mean ns/call over `iters` calls, after a 10% warmup.
fn bench_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters.div_ceil(10) {
        f();
    }
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_nanos() as f64 / f64::from(iters.max(1))
}

/// Best of three measurement reps — the gate should reflect the kernels,
/// not a scheduler hiccup on a shared CI runner.
fn best_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    (0..3).map(|_| bench_ns(iters, &mut f)).fold(f64::INFINITY, f64::min)
}

fn analyzed(program: &rtprogram::Program, priority: u32) -> AnalyzedTask {
    AnalyzedTask::analyze(
        program,
        TaskParams { period: 10_000_000, priority },
        CacheGeometry::paper_l1(),
        TimingModel::default(),
    )
    .expect("workload analyzes")
}

/// One packed-vs-tree timing row plus its speedup; asserts equivalence
/// before timing.
fn kernel_row(label: &str, iters: u32, a: &Ciip, b: &Ciip) -> (Json, f64) {
    let pa = PackedFootprint::from_ciip(a).expect("paper geometry packs");
    let pb = PackedFootprint::from_ciip(b).expect("paper geometry packs");
    let bound = a.overlap_bound(b);
    assert_eq!(pa.overlap_bound(&pb), bound, "{label}: packed != tree");
    let tree_ns = best_ns(iters, || {
        black_box(black_box(a).overlap_bound(black_box(b)));
    });
    let packed_ns = best_ns(iters.saturating_mul(8), || {
        black_box(black_box(&pa).overlap_bound(black_box(&pb)));
    });
    let speedup = tree_ns / packed_ns;
    println!(
        "kernel {label:>16}: tree {tree_ns:>9.1} ns, packed {packed_ns:>7.1} ns \
         ({speedup:.1}x, bound {bound})"
    );
    let row = Json::obj([
        ("bound", Json::from(bound as u64)),
        ("tree_ns", Json::Num(tree_ns)),
        ("packed_ns", Json::Num(packed_ns)),
        ("speedup", Json::Num(speedup)),
    ]);
    (row, speedup)
}

/// Per-workload skyline census and Approach 3/4 inner-loop timing: how
/// hard the dominance pruning worked on this task's traces, and how the
/// packed `max_useful_overlap` compares to the exact tree sweep against
/// `preemptor`'s footprint (equivalence asserted first).
fn workload_row(task: &AnalyzedTask, preemptor: &AnalyzedTask, iters: u32) -> Json {
    let (mut kept, mut candidates) = (0u64, 0u64);
    for path in task.paths() {
        kept += path.trace.skyline_kept().unwrap_or(0) as u64;
        candidates += path.trace.skyline_candidates().unwrap_or(0) as u64;
    }
    let pruned_ratio = if candidates == 0 { 0.0 } else { 1.0 - kept as f64 / candidates as f64 };
    let mb = preemptor.all_blocks();
    let packed_mb = preemptor.all_blocks_packed().expect("paper geometry packs");
    let bound = task.max_useful_overlap(mb);
    assert_eq!(task.max_useful_overlap_packed(packed_mb), bound, "packed != tree");
    let tree_ns = best_ns(iters, || {
        let exact: usize = task
            .paths()
            .iter()
            .map(|p| p.trace.max_overlap_bound(black_box(mb)).0)
            .max()
            .unwrap_or(0);
        black_box(exact);
    });
    let packed_ns = best_ns(iters.saturating_mul(8), || {
        black_box(black_box(task).max_useful_overlap_packed(black_box(packed_mb)));
    });
    println!(
        "skyline {:>16}: {kept} of {candidates} peaks kept (pruned {:.1}%), \
         useful-overlap tree {tree_ns:>11.1} ns vs packed {packed_ns:>9.1} ns ({:.1}x)",
        task.name(),
        pruned_ratio * 100.0,
        tree_ns / packed_ns,
    );
    Json::obj([
        ("paths", Json::from(task.paths().len() as u64)),
        ("skyline_kept", Json::from(kept)),
        ("skyline_candidates", Json::from(candidates)),
        ("pruned_ratio", Json::Num(pruned_ratio)),
        ("useful_overlap_bound", Json::from(bound as u64)),
        ("useful_overlap_tree_ns", Json::Num(tree_ns)),
        ("useful_overlap_packed_ns", Json::Num(packed_ns)),
        ("useful_overlap_speedup", Json::Num(tree_ns / packed_ns)),
    ])
}

fn run() -> Result<(), String> {
    let opts = parse_options()?;
    let geometry = CacheGeometry::paper_l1();
    let kernel_iters: u32 = if opts.quick { 2_000 } else { 20_000 };
    let sweep_iters: u32 = if opts.quick { 5 } else { 25 };
    println!(
        "crpdbench: Eq. 2/3 kernel on {} sets x {} ways ({} mode)",
        geometry.sets(),
        geometry.ways(),
        if opts.quick { "quick" } else { "full" },
    );

    // Synthetic dense pair: every set occupied, the kernel's worst case.
    let dense_a = Ciip::from_blocks(geometry, (0..2048u64).map(|i| MemoryBlock::new(i * 7 % 4096)));
    let dense_b =
        Ciip::from_blocks(geometry, (0..1024u64).map(|i| MemoryBlock::new(i * 13 % 4096)));
    let (synthetic, _) = kernel_row("synthetic_dense", kernel_iters, &dense_a, &dense_b);

    // The Approach 2 operands: union footprints of two analyzed tasks.
    let (preempted, preemptor) = if opts.quick {
        (
            analyzed(&rtworkloads::edge_detection_with_dim(10), 3),
            analyzed(&rtworkloads::mobile_robot(), 2),
        )
    } else {
        (analyzed(&rtworkloads::edge_detection(), 3), analyzed(&rtworkloads::mobile_robot(), 2))
    };
    let (union, union_speedup) =
        kernel_row("union_footprint", kernel_iters, preempted.all_blocks(), preemptor.all_blocks());

    // Skyline census across the paper workloads (reduced dims in quick
    // mode keep the smoke job fast; full mode uses the paper's sizes).
    let workloads: Vec<AnalyzedTask> = if opts.quick {
        vec![
            analyzed(&rtworkloads::adpcm_decoder(), 2),
            analyzed(&rtworkloads::idct_with_blocks(2), 2),
            analyzed(&rtworkloads::ofdm_transmitter_with_points(16), 3),
        ]
    } else {
        vec![
            analyzed(&rtworkloads::adpcm_encoder(), 2),
            analyzed(&rtworkloads::adpcm_decoder(), 2),
            analyzed(&rtworkloads::idct(), 2),
            analyzed(&rtworkloads::ofdm_transmitter(), 3),
        ]
    };
    let mut skyline_rows = vec![
        (preempted.name().to_string(), workload_row(&preempted, &preemptor, sweep_iters)),
        (preemptor.name().to_string(), workload_row(&preemptor, &preempted, sweep_iters)),
    ];
    for task in &workloads {
        skyline_rows.push((task.name().to_string(), workload_row(task, &preemptor, sweep_iters)));
    }
    let rtobs::SkylineTally { kept: total_kept, pruned: total_pruned } = rtobs::skyline_totals();

    write_json(
        &opts.json_out,
        Json::obj([
            ("mode", Json::from(if opts.quick { "quick" } else { "full" })),
            (
                "geometry",
                Json::obj([
                    ("sets", Json::from(u64::from(geometry.sets()))),
                    ("ways", Json::from(u64::from(geometry.ways()))),
                ]),
            ),
            ("kernel", Json::obj([("synthetic_dense", synthetic), ("union_footprint", union)])),
            ("skyline", Json::Obj(skyline_rows.into_iter().collect())),
            (
                "skyline_totals",
                Json::obj([("kept", Json::from(total_kept)), ("pruned", Json::from(total_pruned))]),
            ),
        ]),
    )?;

    // Gate after publishing, so a failed run still leaves its evidence.
    if union_speedup <= 1.0 {
        return Err(format!(
            "packed kernel is not faster than the tree walk on the union-footprint \
             case ({union_speedup:.2}x)"
        ));
    }
    Ok(())
}

fn write_json(path: &str, report: Json) -> Result<(), String> {
    let mut text = report.encode();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("crpdbench: {message}");
            eprintln!("usage: crpdbench [--quick] [--json-out PATH]");
            ExitCode::from(1)
        }
    }
}

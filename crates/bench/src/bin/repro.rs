//! Regenerates every table and figure of Tan & Mooney (DATE 2004).
//!
//! ```text
//! cargo run --release -p rtbench --bin repro -- all
//! cargo run --release -p rtbench --bin repro -- table2
//! cargo run --release -p rtbench --bin repro -- fig4
//! ```

use crpd::{dataflow_useful, reload_lines, CrpdApproach, CrpdMatrix};
use rtbench::tables::{self, wcrt_comparison};
use rtbench::{experiment1_spec, experiment2_spec, Experiment, REFERENCE_CMISS};
use rtcache::{CacheGeometry, Ciip};
use rtprogram::cfg::Cfg;
use rtprogram::paths::enumerate_paths;
use rtsched::{render_timeline, simulate, CacheMode, SchedConfig, SchedTask, VariantPolicy};
use rtwcet::TimingModel;

/// Simulation length for ART measurements, in periods of the
/// lowest-priority task.
const ART_PERIODS: u64 = 4;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let known = [
        "table1", "table2", "table3", "table4", "table5", "table6", "fig1", "fig2", "fig3", "fig4",
        "fig5", "ablation", "all",
    ];
    if !known.contains(&what) {
        eprintln!("usage: repro [{}]", known.join("|"));
        std::process::exit(2);
    }
    let run_all = what == "all";
    let geometry = CacheGeometry::paper_l1();
    println!("# Tan & Mooney (DATE 2004) reproduction — {geometry}\n");

    // Experiments are built lazily; several targets share them.
    let needs_exp1 = run_all || ["table1", "table2", "table3", "table4", "fig1"].contains(&what);
    let needs_exp2 = run_all || ["table1", "table2", "table5", "table6"].contains(&what);
    let exp1 = needs_exp1.then(|| Experiment::build(&experiment1_spec(), geometry));
    let exp2 = needs_exp2.then(|| Experiment::build(&experiment2_spec(), geometry));

    if run_all || what == "table1" {
        println!("{}", tables::table1(exp1.as_ref().unwrap()));
        println!("{}", tables::table1(exp2.as_ref().unwrap()));
        let ccs =
            exp1.as_ref().unwrap().ctx_switch_cost(TimingModel::with_miss_penalty(REFERENCE_CMISS));
        println!("Context switch WCET (Ccs, Cmiss={REFERENCE_CMISS}): {ccs} cycles (paper: 1049 on ARM9)\n");
    }
    if run_all || what == "table2" {
        println!("{}", tables::table2(exp1.as_ref().unwrap()));
        println!("{}", tables::table2(exp2.as_ref().unwrap()));
    }
    if run_all || what == "table3" || what == "table4" {
        let e = exp1.as_ref().unwrap();
        let cmp = wcrt_comparison(e, ART_PERIODS);
        if run_all || what == "table3" {
            println!("{}", tables::table_wcrt(e, &cmp));
        }
        if run_all || what == "table4" {
            println!("{}", tables::table_improvements(e, &cmp));
        }
    }
    if run_all || what == "table5" || what == "table6" {
        let e = exp2.as_ref().unwrap();
        let cmp = wcrt_comparison(e, ART_PERIODS);
        if run_all || what == "table5" {
            println!("{}", tables::table_wcrt(e, &cmp));
        }
        if run_all || what == "table6" {
            println!("{}", tables::table_improvements(e, &cmp));
        }
    }
    if run_all || what == "fig1" {
        fig1(exp1.as_ref().unwrap());
    }
    if run_all || what == "fig2" {
        fig2();
    }
    if run_all || what == "fig3" {
        fig3();
    }
    if run_all || what == "fig4" {
        fig4(geometry);
    }
    if run_all || what == "fig5" {
        fig5();
    }
    if run_all || what == "ablation" {
        ablation(geometry);
    }
}

/// Fig. 1: the OFDM-analog's response with and without inter-task cache
/// eviction, rendered as a Gantt timeline.
fn fig1(e: &Experiment) {
    println!("Figure 1 ({}): response of the lowest-priority task", e.name);
    let model = TimingModel::with_miss_penalty(REFERENCE_CMISS);
    let names: Vec<&str> = e.reference.iter().map(|t| t.name()).collect();
    let horizon = *e.periods.last().unwrap();
    for (label, mode) in [
        ("(A) private caches — no inter-task eviction", CacheMode::Private),
        ("(B) shared cache — with inter-task eviction", CacheMode::Shared),
    ] {
        let tasks: Vec<SchedTask> = e
            .programs
            .iter()
            .zip(&e.periods)
            .zip(&e.priorities)
            .map(|((p, period), prio)| SchedTask::new(p.clone(), *period, *prio))
            .collect();
        let config = SchedConfig {
            geometry: e.geometry,
            model,
            ctx_switch: e.ctx_switch_cost(model),
            horizon,
            variant_policy: VariantPolicy::Worst,
            cache_mode: mode,
            replacement: Default::default(),
            l2: None,
        };
        let report = simulate(&tasks, &config).expect("experiment simulates");
        println!("\n{label}");
        print!("{}", render_timeline(&report.slices, &names, &e.periods, horizon, 96));
        let lo = report.tasks.last().unwrap();
        println!("R({}) = {} cycles, {} preemptions", lo.name, lo.max_response, lo.preemptions);
    }
    // The 32 KiB L1 absorbs all three footprints, so (A) and (B) barely
    // differ (the paper's measured deltas are similarly small). Repeat on
    // a 2 KiB cache to make the t1, t2, t3 reload overheads visible.
    println!("\nSame comparison on a 2 KiB 2-way cache (contended):");
    let small = CacheGeometry::new(64, 2, 16).expect("valid geometry");
    let e_small = Experiment::build(&experiment1_spec(), small);
    for (label, mode) in [("(A) private", CacheMode::Private), ("(B) shared", CacheMode::Shared)] {
        let tasks: Vec<SchedTask> = e_small
            .programs
            .iter()
            .zip(&e_small.periods)
            .zip(&e_small.priorities)
            .map(|((p, period), prio)| SchedTask::new(p.clone(), *period, *prio))
            .collect();
        let config = SchedConfig {
            geometry: small,
            model,
            ctx_switch: e_small.ctx_switch_cost(model),
            horizon: *e_small.periods.last().unwrap(),
            variant_policy: VariantPolicy::Worst,
            cache_mode: mode,
            replacement: Default::default(),
            l2: None,
        };
        let report = simulate(&tasks, &config).expect("experiment simulates");
        let lo = report.tasks.last().unwrap();
        let reloads: usize = report.preemptions.iter().map(|p| p.reloaded_lines).sum();
        println!(
            "  {label}: R({}) = {} cycles, {} preemptions, {} lines reloaded in total",
            lo.name, lo.max_response, lo.preemptions, reloads
        );
    }
    println!();
}

/// Fig. 2 / Example 2: the tag/index/offset split of the 1 KiB example
/// cache.
fn fig2() {
    let g = CacheGeometry::example2();
    println!("Figure 2 (Example 2): {g}");
    println!(
        "address bits: offset [{}:0], index [{}:{}], tag [31:{}]",
        g.offset_bits() - 1,
        g.offset_bits() + g.index_bits() - 1,
        g.offset_bits(),
        g.offset_bits() + g.index_bits()
    );
    for addr in [0x000u64, 0x010, 0x011, 0x01f, 0x100, 0x210] {
        let block = g.block_of_addr(addr);
        println!(
            "  addr {:#05x} -> block {:#x} (base {:#05x}), set {}, tag {:#x}",
            addr,
            block.number(),
            g.base_addr_of_block(block),
            g.index_of_addr(addr).as_u32(),
            g.tag_of_block(block)
        );
    }
    println!();
}

/// Fig. 3 / Examples 3–4: CIIPs and the Eq. 2 conflict bound.
fn fig3() {
    let g = CacheGeometry::example2();
    let m1 = Ciip::from_addrs(g, [0x000u64, 0x100, 0x010, 0x110, 0x210]);
    let m2 = Ciip::from_addrs(g, [0x200u64, 0x310, 0x410, 0x510]);
    println!("Figure 3 (Examples 3-4): CIIP conflict bound");
    for (name, m) in [("M1", &m1), ("M2", &m2)] {
        println!("  {name}: {m}");
        for (idx, subset) in m.iter() {
            let blocks: Vec<String> =
                subset.iter().map(|b| format!("{:#05x}", g.base_addr_of_block(*b))).collect();
            println!("    {idx}: {{{}}}", blocks.join(", "));
        }
    }
    println!("  S(M1, M2) = Σ_r min(|m1_r|, |m2_r|, L) = {} (paper: 4)", m1.overlap_bound(&m2));
    println!();
}

/// Fig. 4: the ED CFG, its feasible paths and the Eq. 4 path costs.
fn fig4(geometry: CacheGeometry) {
    println!("Figure 4: CFG and path analysis of ED (as the preempting task of OFDM)");
    let ed = rtworkloads::edge_detection();
    let cfg = Cfg::from_program(&ed);
    println!(
        "  ED: {} instructions, {} basic blocks, {} declared loop bounds",
        ed.len(),
        cfg.len(),
        ed.loop_bounds().len()
    );
    match enumerate_paths(&cfg, &ed, 64) {
        Ok(paths) => {
            println!("  structural entry->exit paths (loops collapsed): {}", paths.len());
            for (i, p) in paths.iter().enumerate() {
                println!("    path {}: {} blocks", i + 1, p.len());
            }
        }
        Err(e) => println!("  path enumeration: {e}"),
    }
    // Eq. 4: cost of each feasible path of the preempting task against the
    // preempted task's useful blocks.
    let model = TimingModel::with_miss_penalty(REFERENCE_CMISS);
    let ofdm = crpd::AnalyzedTask::analyze(
        &rtworkloads::ofdm_transmitter(),
        crpd::TaskParams { period: 1, priority: 4 },
        geometry,
        model,
    )
    .expect("analyzes");
    let ed_task = crpd::AnalyzedTask::analyze(
        &ed,
        crpd::TaskParams { period: 1, priority: 3 },
        geometry,
        model,
    )
    .expect("analyzes");
    for path in ed_task.paths() {
        println!(
            "  C(path {}) = S(useful(OFDM), M_ed^{}) = {} lines",
            path.name,
            path.name,
            ofdm.max_useful_overlap(&path.blocks)
        );
    }
    println!(
        "  Eq. 4 cost (max over paths) = {} lines",
        reload_lines(CrpdApproach::Combined, &ofdm, &ed_task)
    );
    println!();
}

/// Fig. 5: the simulation architecture, reproduced in software.
fn fig5() {
    println!("Figure 5: simulation architecture (paper: XRAY + Atalanta RTOS + Seamless CVE)");
    println!(
        r#"
      paper testbed                      this reproduction
  ┌──────────────────────┐        ┌────────────────────────────┐
  │ Task0 Task1 Task2    │        │ rtworkloads (TRISC tasks)  │
  │   Atalanta RTOS      │        │ rtsched (preemptive FPS,   │
  │   (software, XRAY)   │        │  2·Ccs switch accounting)  │
  ├──────────────────────┤        ├────────────────────────────┤
  │ ARM9TDMI │ L1 cache  │        │ rtprogram ISS │ rtcache L1 │
  │          │ Memory    │        │ (trace exact) │ (+opt. L2) │
  ├──────────────────────┤        ├────────────────────────────┤
  │   Seamless CVE       │        │ shared traces feed rtwcet  │
  │  (hw/sw co-verif.)   │        │ and the crpd analysis      │
  └──────────────────────┘        └────────────────────────────┘
"#
    );
}

/// Ablations: design-choice studies promised in DESIGN.md.
fn ablation(geometry: CacheGeometry) {
    println!("Ablation A: exact trace-based useful blocks vs RMB/LMB dataflow (App. 3 count)");
    let model = TimingModel::with_miss_penalty(REFERENCE_CMISS);
    for program in
        [rtworkloads::mobile_robot(), rtworkloads::edge_detection_with_dim(12), rtworkloads::idct()]
    {
        let task = crpd::AnalyzedTask::analyze(
            &program,
            crpd::TaskParams { period: 1, priority: 1 },
            geometry,
            model,
        )
        .expect("analyzes");
        let df = dataflow_useful(&program, geometry).expect("analyzes");
        println!(
            "  {:>8}: exact {:>4} lines, dataflow {:>4} lines",
            program.name(),
            task.useful_line_bound(),
            df.max_line_bound()
        );
    }

    println!("\nAblation B: per-preemption bounds vs measurement (Experiment I pairs)");
    println!("  (displaced lines are bounded by Eq. 2 / App. 2; actual reloads by Eq. 4 / App. 4;");
    println!("   nested preemptions are attributed to the direct preemptor, so a displaced count");
    println!("   can legitimately exceed its pairwise bound)");
    let e = Experiment::build(&experiment1_spec(), geometry);
    let matrix2 = CrpdMatrix::compute(CrpdApproach::InterTask, &e.reference);
    let matrix = CrpdMatrix::compute(CrpdApproach::Combined, &e.reference);
    let tasks: Vec<SchedTask> = e
        .programs
        .iter()
        .zip(&e.periods)
        .zip(&e.priorities)
        .map(|((p, period), prio)| SchedTask::new(p.clone(), *period, *prio))
        .collect();
    let config = SchedConfig {
        geometry,
        model,
        ctx_switch: e.ctx_switch_cost(model),
        horizon: e.periods.last().unwrap() * 2,
        variant_policy: VariantPolicy::Worst,
        cache_mode: CacheMode::Shared,
        replacement: Default::default(),
        l2: None,
    };
    let report = simulate(&tasks, &config).expect("simulates");
    for i in 0..e.reference.len() {
        for j in 0..e.reference.len() {
            let observed: Vec<usize> = report
                .preemptions
                .iter()
                .filter(|p| p.preempted == i && p.preempting == j)
                .map(|p| p.evicted_lines)
                .collect();
            if observed.is_empty() {
                continue;
            }
            let reloads: Vec<usize> = report
                .preemptions
                .iter()
                .filter(|p| p.preempted == i && p.preempting == j)
                .map(|p| p.reloaded_lines)
                .collect();
            println!(
                "  {} by {}: displaced max {:>3} (App.2 bound {:>3}); reloaded max {:>3} (App.4 bound {:>3}); {} preemptions",
                e.reference[i].name(),
                e.reference[j].name(),
                observed.iter().max().unwrap(),
                matrix2.reload(i, j),
                reloads.iter().max().unwrap(),
                matrix.reload(i, j),
                observed.len()
            );
        }
    }

    println!("\nAblation B2: same, on a 2 KiB 2-way cache where the tasks genuinely contend");
    let small = CacheGeometry::new(64, 2, 16).expect("valid geometry");
    let e_small = Experiment::build(&experiment1_spec(), small);
    let model_small = TimingModel::with_miss_penalty(REFERENCE_CMISS);
    let matrix_small = CrpdMatrix::compute(CrpdApproach::Combined, &e_small.reference);
    let matrix_small2 = CrpdMatrix::compute(CrpdApproach::InterTask, &e_small.reference);
    let tasks_small: Vec<SchedTask> = e_small
        .programs
        .iter()
        .zip(&e_small.periods)
        .zip(&e_small.priorities)
        .map(|((p, period), prio)| SchedTask::new(p.clone(), *period, *prio))
        .collect();
    let config_small = SchedConfig {
        geometry: small,
        model: model_small,
        ctx_switch: e_small.ctx_switch_cost(model_small),
        horizon: e_small.periods.last().unwrap() * 2,
        variant_policy: VariantPolicy::Worst,
        cache_mode: CacheMode::Shared,
        replacement: Default::default(),
        l2: None,
    };
    let report_small = simulate(&tasks_small, &config_small).expect("simulates");
    for i in 0..e_small.reference.len() {
        for j in 0..e_small.reference.len() {
            let observed: Vec<usize> = report_small
                .preemptions
                .iter()
                .filter(|p| p.preempted == i && p.preempting == j)
                .map(|p| p.evicted_lines)
                .collect();
            if observed.is_empty() {
                continue;
            }
            let reloads: Vec<usize> = report_small
                .preemptions
                .iter()
                .filter(|p| p.preempted == i && p.preempting == j)
                .map(|p| p.reloaded_lines)
                .collect();
            println!(
                "  {} by {}: displaced max {:>3} (App.2 bound {:>3}); reloaded max {:>3} (App.4 bound {:>3}); {} preemptions",
                e_small.reference[i].name(),
                e_small.reference[j].name(),
                observed.iter().max().unwrap(),
                matrix_small2.reload(i, j),
                reloads.iter().max().unwrap(),
                matrix_small.reload(i, j),
                observed.len()
            );
        }
    }

    println!("\nAblation D: shared cache + combined analysis vs way-partitioning (Experiment I)");
    println!("  (partitioning zeroes the CRPD but shrinks each task's cache share)");
    {
        use crpd::{even_way_partition, partitioned_analyze_all, TaskParams};
        let e = Experiment::build(&experiment1_spec(), geometry);
        let params: Vec<TaskParams> = e
            .periods
            .iter()
            .zip(&e.priorities)
            .map(|(period, prio)| TaskParams { period: *period, priority: *prio })
            .collect();
        let ways = even_way_partition(geometry, e.programs.len()).expect("4 ways, 3 tasks");
        let ccs = e.ctx_switch_cost(model);
        let parted =
            partitioned_analyze_all(&e.programs, &params, geometry, model, &ways, ccs, 10_000)
                .expect("analyzes");
        let shared = e.wcrt(CrpdApproach::Combined, REFERENCE_CMISS);
        println!(
            "  {:>6} {:>5} {:>20} {:>20}",
            "task", "ways", "partitioned WCRT", "shared+App.4 WCRT"
        );
        for (i, pt) in parted.iter().enumerate() {
            println!(
                "  {:>6} {:>5} {:>20} {:>20}",
                pt.name, pt.ways, pt.response.cycles, shared[i].cycles
            );
        }
    }

    println!("\nAblation C: cache geometry sweep (App. 2 vs App. 4, OFDM preempted by ED)");
    for (sets, ways) in
        [(128u32, 4u32), (256, 4), (512, 1), (512, 2), (512, 4), (512, 8), (1024, 4)]
    {
        let g = CacheGeometry::new(sets, ways, 16).expect("valid geometry");
        let ofdm = crpd::AnalyzedTask::analyze(
            &rtworkloads::ofdm_transmitter(),
            crpd::TaskParams { period: 1, priority: 4 },
            g,
            model,
        )
        .expect("analyzes");
        let ed = crpd::AnalyzedTask::analyze(
            &rtworkloads::edge_detection(),
            crpd::TaskParams { period: 1, priority: 3 },
            g,
            model,
        )
        .expect("analyzes");
        println!(
            "  {:>4} sets x {} ways: App.1 {:>4}  App.2 {:>4}  App.3 {:>4}  App.4 {:>4}",
            sets,
            ways,
            reload_lines(CrpdApproach::AllPreemptingLines, &ofdm, &ed),
            reload_lines(CrpdApproach::InterTask, &ofdm, &ed),
            reload_lines(CrpdApproach::UsefulBlocks, &ofdm, &ed),
            reload_lines(CrpdApproach::Combined, &ofdm, &ed),
        );
    }
    println!();
}

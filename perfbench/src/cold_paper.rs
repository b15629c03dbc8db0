//! `cold_paper`: one op is a cold one-shot WCRT of both paper systems at
//! two cache geometries — what `trisc wcrt` / `repro` pay on the paper's
//! own inputs. Almost all of it is the artifact pipeline (ISS trace,
//! classification and skyline, CIIP and pack, WCET); the CRPD matrix and
//! Eq. 7 are a sliver.

use std::collections::BTreeMap;
use std::sync::Arc;

use crpd::{
    analyze_all, program_fingerprint, AnalyzedProgram, AnalyzedTask, CrpdApproach, CrpdMatrix,
    TaskParams, UsefulTrace, WcrtParams, WcrtResult,
};
use rtcache::{CacheGeometry, Ciip, PackedFootprint};
use rtprogram::Program;
use rtsched::{CacheMode, SchedConfig, SchedTask, VariantPolicy};
use rtwcet::{estimate_wcet, TimingModel};

use crate::layers::TracedWindow;
use crate::measure::{self, Outcome, SplitMix};
use crate::trace::Tracer;
use crate::Args;

/// The paper's reference miss penalty (Example 6).
const CMISS: u64 = 20;
/// Periods are derived at the top of the paper's Cmiss sweep, as the
/// `repro` harness does, so utilizations match Table I.
const PERIOD_CMISS: u64 = 40;
/// Co-simulation length in lowest-priority periods (as `repro`).
const ART_PERIODS: u64 = 4;
const MAX_ITERATIONS: u32 = 10_000;

/// One task slot of Table I: program, paper WCET and period (µs), and
/// priority (smaller is higher).
struct Slot {
    program: Program,
    paper_wcet_us: f64,
    paper_period_us: f64,
    priority: u32,
}

fn systems() -> Vec<(&'static str, Vec<Slot>)> {
    let slot = |program, paper_wcet_us, paper_period_us, priority| Slot {
        program,
        paper_wcet_us,
        paper_period_us,
        priority,
    };
    vec![
        (
            "exp1",
            vec![
                slot(rtworkloads::mobile_robot(), 830.0, 3_500.0, 2),
                slot(rtworkloads::edge_detection(), 1_392.0, 6_500.0, 3),
                slot(rtworkloads::ofdm_transmitter(), 2_830.0, 40_000.0, 4),
            ],
        ),
        (
            "exp2",
            vec![
                slot(rtworkloads::idct(), 1_580.0, 4_500.0, 2),
                slot(rtworkloads::adpcm_decoder(), 2_839.0, 10_000.0, 3),
                slot(rtworkloads::adpcm_encoder(), 7_675.0, 50_000.0, 4),
            ],
        ),
    ]
}

/// One system at one geometry: everything an op needs as input.
struct Case {
    label: String,
    geometry: CacheGeometry,
    programs: Vec<Program>,
    params: Vec<TaskParams>,
    ctx_switch: u64,
}

impl Case {
    fn model(&self) -> TimingModel {
        TimingModel::with_miss_penalty(CMISS)
    }

    fn wcrt_params(&self) -> WcrtParams {
        WcrtParams {
            miss_penalty: CMISS,
            ctx_switch: self.ctx_switch,
            max_iterations: MAX_ITERATIONS,
        }
    }
}

/// The four cases. The seed scales each period by 0.95 to 1.05 of the
/// one that gives the paper's utilization.
fn build_cases(seed: u64) -> Vec<Case> {
    let mut rng = SplitMix::new(seed);
    let geometries = [
        ("32k", CacheGeometry::paper_l1()),
        ("64x2x16", CacheGeometry::new(64, 2, 16).expect("valid geometry")),
    ];
    let mut cases = Vec::new();
    for (system, slots) in systems() {
        for (glabel, geometry) in geometries {
            let period_model = TimingModel::with_miss_penalty(PERIOD_CMISS);
            let params = slots
                .iter()
                .map(|s| {
                    let wcet = estimate_wcet(&s.program, geometry, period_model)
                        .expect("paper workloads analyze")
                        .cycles;
                    let jitter = rng.range(950, 1050) as f64 / 1000.0;
                    let period =
                        (wcet as f64 * s.paper_period_us / s.paper_wcet_us * jitter).round() as u64;
                    TaskParams { period, priority: s.priority }
                })
                .collect();
            let ctx_switch = estimate_wcet(
                &rtworkloads::context_switch(),
                geometry,
                TimingModel::with_miss_penalty(CMISS),
            )
            .expect("context switch analyzes")
            .cycles;
            cases.push(Case {
                label: format!("{system}_{glabel}"),
                geometry,
                programs: slots.iter().map(|s| s.program.clone()).collect(),
                params,
                ctx_switch,
            });
        }
    }
    cases
}

/// The op: analyze every program cold, bound the CRPD matrix, run Eq. 7.
fn op(cases: &[Case]) -> Vec<Vec<WcrtResult>> {
    cases
        .iter()
        .map(|case| {
            let tasks: Vec<AnalyzedTask> = case
                .programs
                .iter()
                .zip(&case.params)
                .map(|(p, params)| {
                    AnalyzedTask::analyze(p, params.clone(), case.geometry, case.model())
                        .expect("paper workloads analyze")
                })
                .collect();
            let matrix = CrpdMatrix::compute(CrpdApproach::Combined, &tasks);
            analyze_all(&tasks, &matrix, &case.wcrt_params())
        })
        .collect()
}

/// The op again, rebuilt from the public calls each layer exposes, with a
/// span around each. `AnalyzedProgram::from_parts` turns the traced
/// pieces back into the artifact; it repeats work the spans already
/// timed, so it runs in a `bench.` span that is excluded from the layers.
fn traced_op(cases: &[Case], t: &mut Tracer) -> Vec<Vec<WcrtResult>> {
    cases
        .iter()
        .map(|case| {
            let (geometry, model) = (case.geometry, case.model());
            let tasks: Vec<AnalyzedTask> = case
                .programs
                .iter()
                .zip(&case.params)
                .map(|(program, params)| {
                    let fingerprint = t.span("crpd.task.fingerprint", |_| {
                        program_fingerprint(program, geometry, model)
                    });
                    let wcet = t.span("rtwcet.wcet", |_| {
                        estimate_wcet(program, geometry, model).expect("paper workloads analyze")
                    });
                    let mut paths = Vec::new();
                    for variant in program.variants() {
                        let trace = t.span("rtprogram.iss", |_| {
                            rtprogram::sim::trace_variant(program, variant).expect("paths run")
                        });
                        t.count("rtprogram.instructions", trace.instructions);
                        t.count("rtprogram.accesses", trace.accesses.len() as u64);
                        let useful = t.span("crpd.intra.classify", |_| {
                            let useful = UsefulTrace::from_trace(&trace, geometry);
                            drop(trace);
                            useful
                        });
                        t.count(
                            "crpd.intra.skyline_candidates",
                            useful.skyline_candidates().unwrap_or(0) as u64,
                        );
                        t.count(
                            "crpd.intra.skyline_kept",
                            useful.skyline_kept().unwrap_or(0) as u64,
                        );
                        let blocks = t.span("rtcache.ciip", |_| useful.all_blocks());
                        let packed =
                            t.span("rtcache.pack", |_| PackedFootprint::from_ciip(&blocks));
                        paths.push((variant.name.clone(), useful, blocks, packed));
                    }
                    let all = t.span("rtcache.ciip", |_| {
                        paths.iter().fold(Ciip::empty(geometry), |all, p| all.union(&p.2))
                    });
                    let all_packed = t.span("rtcache.pack", |_| PackedFootprint::from_ciip(&all));
                    t.span("bench.rebuild", |_| {
                        drop((all, all_packed));
                        let accesses = paths
                            .into_iter()
                            .map(|(name, useful, _, _)| (name, useful.accesses().to_vec()))
                            .collect();
                        let artifact = AnalyzedProgram::from_parts(
                            program.name().to_string(),
                            wcet.cycles,
                            geometry,
                            model,
                            fingerprint,
                            accesses,
                        );
                        AnalyzedTask::bind(Arc::new(artifact), params.clone())
                    })
                })
                .collect();
            let matrix = t.span("crpd.approaches.matrix", |_| {
                CrpdMatrix::compute(CrpdApproach::Combined, &tasks)
            });
            let results =
                t.span("crpd.wcrt.fixpoint", |_| analyze_all(&tasks, &matrix, &case.wcrt_params()));
            t.count("crpd.wcrt.iterations", results.iter().map(|r| u64::from(r.iterations)).sum());
            t.span("crpd.task.drop", |_| drop(tasks));
            results
        })
        .collect()
}

/// Set-up state: the inputs and the reference WCRTs.
struct Setup {
    cases: Vec<Case>,
    reference: Vec<Vec<WcrtResult>>,
}

fn setup(seed: u64, pool: &rtpar::Pool) -> Setup {
    let cases = pool.install(|| build_cases(seed));
    let reference = pool.install(|| op(&cases));
    Setup { cases, reference }
}

/// Co-simulates every case and checks each reference WCRT against the
/// worst measured response. Returns, per case, `(label, sum of WCRTs,
/// sum of measured ARTs)`, and the failed checks.
fn check_against_cosim(s: &Setup, pool: &rtpar::Pool) -> (Vec<(String, u64, u64)>, Vec<String>) {
    let mut failures = Vec::new();
    let mut pessimism = Vec::new();
    for (case, wcrt) in s.cases.iter().zip(&s.reference) {
        let art = pool.install(|| measured_art(case));
        let model = case.model();
        // The release slack `rtfuzz::oracle` allows: a release waits out
        // one in-flight instruction and its misses, plus two switches.
        let slack = model.cpi + 2 * model.miss_penalty + 2 * case.ctx_switch;
        for ((r, measured), program) in wcrt.iter().zip(&art).zip(&case.programs) {
            if *measured > r.cycles + slack {
                failures.push(format!(
                    "{}: {} measured response {measured} > WCRT {} + slack {slack}",
                    case.label,
                    program.name(),
                    r.cycles
                ));
            }
        }
        let wcrt_sum = wcrt.iter().map(|r| r.cycles).sum();
        pessimism.push((case.label.clone(), wcrt_sum, art.iter().sum()));
    }
    (pessimism, failures)
}

/// Worst-path co-simulation of one case on a shared LRU cache.
fn measured_art(case: &Case) -> Vec<u64> {
    let tasks: Vec<SchedTask> = case
        .programs
        .iter()
        .zip(&case.params)
        .map(|(p, params)| SchedTask::new(p.clone(), params.period, params.priority))
        .collect();
    let horizon = case.params.iter().map(|p| p.period).max().unwrap_or(1) * ART_PERIODS;
    let config = SchedConfig {
        geometry: case.geometry,
        model: case.model(),
        ctx_switch: case.ctx_switch,
        horizon,
        variant_policy: VariantPolicy::Worst,
        cache_mode: CacheMode::Shared,
        replacement: Default::default(),
        l2: None,
    };
    let report = rtsched::simulate(&tasks, &config).expect("paper systems co-simulate");
    report.tasks.iter().map(|t| t.max_response).collect()
}

pub fn run(args: &Args, pool: &rtpar::Pool) -> Outcome {
    let (setup_s, s) = measure::repeated_setup(|| {
        let s = setup(args.seed, pool);
        // Warm-up: one untimed op.
        pool.install(|| op(&s.cases));
        s
    });
    let check = |results: Vec<Vec<WcrtResult>>| results == s.reference;
    let (mut window, traced) = if args.trace {
        let traced = TracedWindow::run(
            args.seconds,
            || check(pool.install(|| op(&s.cases))),
            |t| check(pool.install(|| traced_op(&s.cases, t))),
        );
        (None, Some(traced))
    } else {
        let ops = |_| (1, check(pool.install(|| op(&s.cases))));
        (Some(measure::timed_window(args.seconds, ops, |_| {})), None)
    };
    // The reference checks run after the window, so that their memory
    // does not shift the heap the window's peak RSS is read from: the
    // co-simulation bound, and that the op does not depend on the pool
    // size.
    let (pessimism, mut failures) = check_against_cosim(&s, pool);
    if rtpar::Pool::new(2).install(|| op(&s.cases)) != s.reference {
        failures.push("WCRTs on a 2-thread pool differ from 1 thread".to_string());
    }
    if let Some(window) = &mut window {
        measure::fail_all_unless(window, "cold_paper", &failures);
        return Outcome::end_to_end(setup_s, window);
    }
    let mut traced = traced.expect("one of the two windows ran");
    measure::fail_all_unless(&mut traced.window, "cold_paper", &failures);
    // The pessimism diagnostic: how far the shipped bound sits above the
    // co-simulated worst case, per system and geometry and over all four.
    let mut extra = BTreeMap::new();
    let (mut wcrt_total, mut art_total) = (0, 0);
    for (label, wcrt, art) in &pessimism {
        extra.insert(format!("crpd.pessimism_ratio.{label}"), *wcrt as f64 / *art as f64);
        wcrt_total += wcrt;
        art_total += art;
    }
    extra.insert("crpd.pessimism_ratio".into(), wcrt_total as f64 / art_total as f64);
    traced.outcome("cold_paper", extra)
}

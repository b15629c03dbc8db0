//! The per-layer metrics of a traced run, in the order `BENCHMARK.json`
//! lists them. Every traced run prints all of them; a layer the
//! workload's timed op never calls reads 0.

use std::collections::BTreeMap;

use crate::measure::{timed_window, Metric, Outcome, Window};
use crate::trace::{Tracer, BENCH};

/// How far the layers' self times may stray from the untraced op time
/// (`|coverage - 1|`) before a traced `cold_paper` or `sweep_sched` run
/// reports itself incorrect.
pub const COVERAGE_TOLERANCE: f64 = 0.10;

/// `(metric, unit)`. Span metrics end in `_ms` and are self time per op;
/// counts are exact work per op.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("rtprogram.iss_ms", "ms"),
    ("rtprogram.instructions", "count"),
    ("rtprogram.accesses", "count"),
    ("crpd.intra.classify_ms", "ms"),
    ("crpd.intra.skyline_candidates", "count"),
    ("crpd.intra.skyline_kept", "count"),
    ("rtcache.ciip_ms", "ms"),
    ("rtcache.pack_ms", "ms"),
    ("rtwcet.wcet_ms", "ms"),
    ("crpd.task.fingerprint_ms", "ms"),
    ("crpd.task.drop_ms", "ms"),
    ("crpd.approaches.matrix_ms", "ms"),
    ("crpd.approaches.cell_ms", "ms"),
    ("crpd.approaches.cells_computed", "count"),
    ("crpd.approaches.cell_lookups", "count"),
    ("crpd.approaches.cell_hit_ratio", "ratio"),
    ("crpd.wcrt.fixpoint_ms", "ms"),
    ("crpd.wcrt.iterations", "count"),
    ("rtexplore.bind_ms", "ms"),
    ("rtexplore.outcome_ms", "ms"),
    ("rtexplore.front_ms", "ms"),
    ("rtexplore.points", "count"),
    ("rtexplore.front_size", "count"),
    ("rtserver.request_ms_p50", "ms"),
    ("rtserver.request_ms_p90", "ms"),
    ("rtserver.queue_ms_p50", "ms"),
    ("rtserver.stage_analyze_ms", "ms"),
    ("rtreact.transport_ms_p50", "ms"),
    ("rtserver.store.assemble_misses", "count"),
    ("rtserver.store.analyze_misses", "count"),
    ("rtserver.store.analyze_hits", "count"),
    ("rtserver.store.cell_hit_ratio", "ratio"),
    ("rtserver.errors", "count"),
    ("rtserver.shed", "count"),
    ("crpd.pessimism_ratio", "ratio"),
    ("crpd.pessimism_ratio.exp1_32k", "ratio"),
    ("crpd.pessimism_ratio.exp1_64x2x16", "ratio"),
    ("crpd.pessimism_ratio.exp2_32k", "ratio"),
    ("crpd.pessimism_ratio.exp2_64x2x16", "ratio"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Span self times (ms) and counts per traced op, keyed by metric name.
pub fn per_op(tracer: &Tracer, ops: usize) -> BTreeMap<String, f64> {
    let ops = ops as f64;
    let mut values: BTreeMap<String, f64> = tracer
        .self_ns()
        .iter()
        .filter(|(layer, _)| !layer.starts_with(BENCH))
        .map(|(layer, ns)| (format!("{layer}_ms"), *ns as f64 / 1e6 / ops))
        .collect();
    for (name, n) in tracer.counts() {
        values.insert((*name).to_string(), *n as f64 / ops);
    }
    values
}

/// Every layer metric, in list order; names missing from `values` read 0.
///
/// # Panics
///
/// Panics if `values` holds a name the list does not, so a metric cannot
/// be measured and silently dropped.
pub fn report(values: &BTreeMap<String, f64>) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            LAYER_METRICS.iter().any(|(known, _)| known == name),
            "layer metric `{name}` is not in LAYER_METRICS"
        );
    }
    LAYER_METRICS
        .iter()
        .map(|(name, unit)| Metric::new(*name, values.get(*name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// A traced window: untraced and traced ops alternate, so both see the
/// same machine state, and the difference between them is the tracing
/// overhead.
pub struct TracedWindow {
    pub window: Window,
    /// Spans and counts summed over the traced ops.
    pub tracer: Tracer,
    traced_ops: usize,
    counts_repeat: bool,
}

impl TracedWindow {
    /// Runs the window. Each closure does one op and returns whether its
    /// result passed the workload's correctness check.
    pub fn run(
        seconds: u64,
        mut untraced: impl FnMut() -> bool,
        mut traced: impl FnMut(&mut Tracer) -> bool,
    ) -> TracedWindow {
        let mut tracer = Tracer::default();
        let mut traced_ops = 0;
        let mut first_counts = None;
        let mut counts_repeat = true;
        let window = timed_window(
            seconds,
            |i| {
                if i % 2 == 0 {
                    return (1, untraced());
                }
                let mut op = Tracer::default();
                let ok = traced(&mut op);
                match &first_counts {
                    None => first_counts = Some(op.counts().clone()),
                    Some(first) => counts_repeat &= first == op.counts(),
                }
                tracer.merge(&op);
                traced_ops += 1;
                (1, ok)
            },
            |_| {},
        );
        TracedWindow { window, tracer, traced_ops, counts_repeat }
    }

    /// The traced run's outcome: every layer metric plus coverage and
    /// overhead. `extra` adds metrics measured outside the spans. The run
    /// is incorrect when a count differs between ops or the self times
    /// miss the untraced op time by more than [`COVERAGE_TOLERANCE`].
    pub fn outcome(self, workload: &str, extra: BTreeMap<String, f64>) -> Outcome {
        // Untraced ops are the even ones, traced the odd ones.
        let secs = &self.window.op_secs;
        let ops = secs.len();
        let untraced_mean = secs.iter().step_by(2).sum::<f64>() / (ops - self.traced_ops) as f64;
        let traced_wall = secs.iter().skip(1).step_by(2).sum::<f64>() - self.tracer.bench_secs();
        let per_traced = |secs: f64| secs / self.traced_ops as f64;
        let coverage = per_traced(self.tracer.total_secs()) / untraced_mean;
        let overhead = per_traced(traced_wall) / untraced_mean - 1.0;
        let mut values = per_op(&self.tracer, self.traced_ops);
        values.extend(extra);
        values.insert("trace.coverage_ratio".into(), coverage);
        values.insert("trace.overhead_ratio".into(), overhead);
        let covered = (coverage - 1.0).abs() <= COVERAGE_TOLERANCE;
        if !covered {
            eprintln!(
                "{workload}: check failed: layer self times are {coverage:.3} of the untraced op \
                 time (tolerance {COVERAGE_TOLERANCE})"
            );
        }
        if !self.counts_repeat {
            eprintln!("{workload}: check failed: a work count differs between traced ops");
        }
        Outcome {
            correct: covered && self.counts_repeat && self.window.failed == 0,
            attempted: ops,
            failed: self.window.failed,
            metrics: report(&values),
        }
    }
}

//! Spans around the benchmark's calls into each layer's public API.
//!
//! A span's *self* time is its duration minus the time of the spans
//! nested inside it, so the self times of one op add up to the op's
//! traced wall time without counting anything twice. Spans stay in
//! memory and are read out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Prefix of spans around the benchmark's own glue code.
pub const BENCH: &str = "bench.";

#[derive(Default)]
pub struct Tracer {
    /// Self nanoseconds per layer name.
    self_ns: BTreeMap<&'static str, u64>,
    /// Child nanoseconds accumulated by each open span.
    open: Vec<u64>,
    /// Exact work counts per name.
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// Runs `f` inside a span named `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.open.push(0);
        let started = Instant::now();
        let result = f(self);
        let total = started.elapsed().as_nanos() as u64;
        let children = self.open.pop().expect("span stack is balanced");
        *self.self_ns.entry(layer).or_default() += total.saturating_sub(children);
        if let Some(parent) = self.open.last_mut() {
            *parent += total;
        }
        result
    }

    /// Adds `n` to the work count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn self_ns(&self) -> &BTreeMap<&'static str, u64> {
        &self.self_ns
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Adds another tracer's spans and counts to this one.
    pub fn merge(&mut self, other: &Tracer) {
        for (layer, ns) in &other.self_ns {
            *self.self_ns.entry(layer).or_default() += ns;
        }
        for (name, n) in &other.counts {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// Sum of the layers' self times, in seconds. Spans named `bench.*`
    /// are the benchmark's own glue and count as no layer.
    pub fn total_secs(&self) -> f64 {
        self.sum_secs(|layer| !layer.starts_with(BENCH))
    }

    /// Time spent in the benchmark's own `bench.*` spans, in seconds.
    pub fn bench_secs(&self) -> f64 {
        self.sum_secs(|layer| layer.starts_with(BENCH))
    }

    fn sum_secs(&self, keep: impl Fn(&str) -> bool) -> f64 {
        self.self_ns.iter().filter(|(l, _)| keep(l)).map(|(_, ns)| ns).sum::<u64>() as f64 / 1e9
    }
}

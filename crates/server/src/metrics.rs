//! Built-in observability: the counters behind the `metrics` snapshot.
//!
//! Every request is timed once, into the always-on [`FlightRecorder`]'s
//! per-endpoint log₂ latency histogram. Latencies land in buckets
//! `[2^i, 2^(i+1))` microseconds, so reported percentiles are upper
//! bounds with at most 2× resolution — plenty to tell a 50 µs cache hit
//! from a 50 ms cold analysis. [`Metrics`] keeps only what the recorder
//! does not: per-endpoint admission sheds and deadline misses, and the
//! explore gauges. [`Metrics::endpoint_rows`] merges the two into the
//! one per-endpoint row source the `metrics` snapshot renders.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rtobs::flight::{EndpointSummary, FlightRecorder, LogHistogram};

#[derive(Debug, Clone, Copy, Default)]
struct AdmissionCounts {
    shed: u64,
    deadline_misses: u64,
}

/// One endpoint's statistics, as the `metrics` snapshot reports them.
#[derive(Debug, Clone)]
pub struct EndpointRow {
    /// Handled requests, errors and the latency histogram, straight from
    /// the flight recorder (all zero for an endpoint only ever shed).
    pub flight: EndpointSummary,
    /// Requests shed by admission control before any analysis ran (not
    /// in `flight`: the server never handled them).
    pub shed: u64,
    /// Requests rejected because their queue wait exceeded the deadline
    /// (these *are* also handled errors in `flight`).
    pub deadline_misses: u64,
}

/// The server-wide counters the flight recorder does not keep. One
/// instance lives in the shared server state.
#[derive(Debug, Default)]
pub struct Metrics {
    endpoints: Mutex<BTreeMap<&'static str, AdmissionCounts>>,
    /// Sweep points evaluated by `explore` requests, cumulative.
    explore_points: AtomicU64,
    /// Pareto-front size of the most recent completed `explore` sweep.
    explore_front_size: AtomicU64,
}

impl Metrics {
    /// Records one request for `endpoint` shed by admission control. Shed
    /// requests never ran, so they land only in the shed counter — never
    /// in the flight recorder's request count or latency histogram.
    pub fn record_shed(&self, endpoint: &'static str) {
        let mut endpoints = self.endpoints.lock().expect("metrics lock");
        endpoints.entry(endpoint).or_default().shed += 1;
    }

    /// Records one deadline miss for `endpoint` (the request was rejected
    /// after parse but before analysis; it still flies through the flight
    /// recorder as a handled error).
    pub fn record_deadline_miss(&self, endpoint: &'static str) {
        let mut endpoints = self.endpoints.lock().expect("metrics lock");
        endpoints.entry(endpoint).or_default().deadline_misses += 1;
    }

    /// Records one completed `explore` sweep: `points` accumulate, the
    /// front size tracks the latest sweep.
    pub fn record_explore(&self, points: u64, front_size: u64) {
        self.explore_points.fetch_add(points, Ordering::Relaxed);
        self.explore_front_size.store(front_size, Ordering::Relaxed);
    }

    /// The explore gauges: cumulative sweep points, and the front size of
    /// the latest sweep.
    pub fn explore(&self) -> (u64, u64) {
        (
            self.explore_points.load(Ordering::Relaxed),
            self.explore_front_size.load(Ordering::Relaxed),
        )
    }

    /// Every endpoint that has flown through `flight` or been shed, in
    /// endpoint-name order, with its admission counters merged in. An
    /// endpoint that has only ever been shed never flew, so its flight
    /// summary is all zeros.
    pub fn endpoint_rows(&self, flight: &FlightRecorder) -> Vec<EndpointRow> {
        let mut rows: BTreeMap<&'static str, EndpointRow> = flight
            .endpoints()
            .into_iter()
            .map(|e| (e.endpoint, EndpointRow { flight: e, shed: 0, deadline_misses: 0 }))
            .collect();
        let admission = self.endpoints.lock().expect("metrics lock");
        for (&endpoint, counts) in admission.iter() {
            let row = rows.entry(endpoint).or_insert_with(|| EndpointRow {
                flight: EndpointSummary::new(endpoint, 0, LogHistogram::new().snapshot()),
                shed: 0,
                deadline_misses: 0,
            });
            row.shed = counts.shed;
            row.deadline_misses = counts.deadline_misses;
        }
        rows.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_merge_admission_counters_into_flight_summaries() {
        let metrics = Metrics::default();
        let flight = FlightRecorder::new(8);
        flight.begin("wcrt", 0).finish(true);
        flight.begin("wcrt", 0).finish(false);
        flight.begin("ping", 0).finish(true);
        metrics.record_shed("wcrt");
        metrics.record_shed("wcrt");
        metrics.record_deadline_miss("wcrt");
        metrics.record_shed("crpd"); // shed only: never flew
        let rows: Vec<(&str, u64, u64, u64, u64)> = metrics
            .endpoint_rows(&flight)
            .iter()
            .map(|r| {
                (r.flight.endpoint, r.flight.count, r.flight.errors, r.shed, r.deadline_misses)
            })
            .collect();
        assert_eq!(rows, [("crpd", 0, 0, 1, 0), ("ping", 1, 0, 0, 0), ("wcrt", 2, 1, 2, 1)]);
        metrics.record_explore(64, 5);
        metrics.record_explore(36, 3);
        assert_eq!(metrics.explore(), (100, 3), "points accumulate, the latest front wins");
    }
}

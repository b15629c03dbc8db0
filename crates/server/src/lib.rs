//! `rtserver` — a concurrent WCRT analysis service.
//!
//! The one-shot `trisc` CLI re-analyzes every task from scratch on each
//! run. This crate keeps the analysis pipeline resident: a long-lived TCP
//! daemon (`trisc serve`) speaks a newline-delimited JSON protocol
//! ([`proto`]), executes `wcet`/`crpd`/`wcrt`/`sim` requests on a fixed
//! worker pool ([`pool`]), memoizes analysis artifacts content-addressed
//! by program text, cache geometry and timing model in the single-flight
//! [`rtcli::store::ArtifactStore`] (scheduling parameters are rebound per
//! request), and reports per-endpoint counters and latency percentiles
//! through a `metrics` request ([`metrics`]).
//!
//! Everything is `std`-only — the JSON codec ([`json`]) is hand-rolled —
//! and responses render through the exact same `rtcli` code paths as the
//! one-shot commands, so server output is byte-identical to the CLI's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod ops;
pub mod pool;
pub mod proto;
pub mod server;

pub use server::{run, Server, ServerHandle, ServerState};

//! Shared command-line options and the CLI error type.

use std::fmt;

use rtcache::{CacheGeometry, GeometryError};
use rtwcet::TimingModel;

/// Cache/timing options shared by the analysis subcommands
/// (`--sets`, `--ways`, `--line`, `--cmiss`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOptions {
    /// Number of cache sets.
    pub sets: u32,
    /// Number of ways.
    pub ways: u32,
    /// Line size in bytes.
    pub line: u32,
    /// Miss penalty in cycles.
    pub cmiss: u64,
}

impl Default for CacheOptions {
    /// The paper's configuration: 512 × 4 × 16 B, 20-cycle misses.
    fn default() -> Self {
        CacheOptions { sets: 512, ways: 4, line: 16, cmiss: 20 }
    }
}

impl CacheOptions {
    /// Builds the cache geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Options`] for invalid dimensions.
    pub fn geometry(&self) -> Result<CacheGeometry, CliError> {
        CacheGeometry::new(self.sets, self.ways, self.line)
            .map_err(|e: GeometryError| CliError::Options(e.to_string()))
    }

    /// Builds the timing model.
    pub fn model(&self) -> TimingModel {
        TimingModel::with_miss_penalty(self.cmiss)
    }

    /// Consumes recognized `--flag value` pairs from an argument list,
    /// leaving the rest untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Options`] for malformed values or a flag
    /// missing its value.
    pub fn parse_from(&mut self, args: &mut Vec<String>) -> Result<(), CliError> {
        let mut remaining = Vec::with_capacity(args.len());
        let mut it = args.drain(..);
        while let Some(arg) = it.next() {
            let target: Option<&mut dyn FnMut(u64)> = None;
            let _ = target;
            match arg.as_str() {
                "--sets" | "--ways" | "--line" | "--cmiss" => {
                    let value = it
                        .next()
                        .ok_or_else(|| CliError::Options(format!("{arg} needs a value")))?;
                    let parsed: u64 = value
                        .parse()
                        .map_err(|_| CliError::Options(format!("bad value for {arg}: {value}")))?;
                    match arg.as_str() {
                        "--sets" => self.sets = parsed as u32,
                        "--ways" => self.ways = parsed as u32,
                        "--line" => self.line = parsed as u32,
                        _ => self.cmiss = parsed,
                    }
                }
                _ => remaining.push(arg),
            }
        }
        drop(it);
        *args = remaining;
        Ok(())
    }
}

/// Options of the `trisc serve` subcommand (`--host`, `--port`,
/// `--threads`, `--trace-out`). The daemon itself lives in the `rtserver`
/// crate; parsing stays here with the other CLI surface so it is testable
/// alongside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Interface to bind.
    pub host: String,
    /// TCP port to bind; `0` asks the OS for an ephemeral port.
    pub port: u16,
    /// The server's one parallelism knob: connection workers *and* the
    /// `rtpar` analysis pool that intra-request analysis fans out on.
    pub threads: usize,
    /// Keep an `rtobs` recorder installed for the server's lifetime and
    /// write the Chrome trace of everything it served here on shutdown.
    pub trace_out: Option<String>,
    /// Slow-request threshold in milliseconds (`--slow-ms`): any request
    /// at least this slow has its full span tree captured into the
    /// bounded black-box buffer served by the `flight` endpoint. `None`
    /// disables capture.
    pub slow_ms: Option<u64>,
    /// Flight-recorder ring capacity (`--flight-capacity`): how many of
    /// the most recent per-request records the `journal` endpoint keeps.
    pub flight_capacity: usize,
    /// Reactor event loops (`--event-threads`): how many threads
    /// multiplex connection I/O. A handful suffices for thousands of
    /// connections; analysis parallelism stays on `--threads`.
    pub event_threads: usize,
    /// Admission cap (`--max-inflight`): analysis requests arriving while
    /// this many are already in flight are shed with a typed
    /// `overloaded` error. `0` sheds every analysis request (useful in
    /// tests); ops-plane commands are never shed.
    pub max_inflight: u64,
    /// Server-wide queue-wait deadline in milliseconds (`--deadline-ms`):
    /// analysis requests that waited at least this long before pickup are
    /// rejected with a typed `deadline_exceeded` error instead of being
    /// analyzed late. Requests may override via their `deadline_ms`
    /// field. `None` disables the server-wide deadline.
    pub deadline_ms: Option<u64>,
    /// Idle-connection timeout in milliseconds (`--idle-timeout-ms`):
    /// connections with no traffic and no request in flight for this
    /// long are closed (slowloris defense). `None` keeps idle
    /// connections forever.
    pub idle_timeout_ms: Option<u64>,
}

impl Default for ServeOptions {
    /// Loopback on port 7227 with [`rtpar::default_threads`] threads
    /// (`RTPAR_THREADS`, or one per available core capped at 8; analysis
    /// requests are CPU-bound) — the same default the analysis pool uses,
    /// so the two are never configured apart.
    fn default() -> Self {
        ServeOptions {
            host: "127.0.0.1".to_string(),
            port: 7227,
            threads: rtpar::default_threads(),
            trace_out: None,
            slow_ms: None,
            flight_capacity: 512,
            event_threads: 2,
            max_inflight: 256,
            deadline_ms: None,
            idle_timeout_ms: None,
        }
    }
}

impl ServeOptions {
    /// Consumes recognized `--flag value` pairs from an argument list,
    /// leaving the rest untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Options`] for malformed values or a flag
    /// missing its value.
    pub fn parse_from(&mut self, args: &mut Vec<String>) -> Result<(), CliError> {
        let mut remaining = Vec::with_capacity(args.len());
        let mut it = args.drain(..);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--host" | "--port" | "--threads" | "--trace-out" | "--slow-ms"
                | "--flight-capacity" | "--event-threads" | "--max-inflight" | "--deadline-ms"
                | "--idle-timeout-ms" => {
                    let value = it
                        .next()
                        .ok_or_else(|| CliError::Options(format!("{arg} needs a value")))?;
                    match arg.as_str() {
                        "--host" => self.host = value,
                        "--trace-out" => self.trace_out = Some(value),
                        "--port" => {
                            self.port = value.parse().map_err(|_| {
                                CliError::Options(format!("bad value for --port: {value}"))
                            })?;
                        }
                        "--slow-ms" => {
                            self.slow_ms = Some(value.parse().map_err(|_| {
                                CliError::Options(format!("bad value for --slow-ms: {value}"))
                            })?);
                        }
                        "--flight-capacity" => {
                            self.flight_capacity =
                                value.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
                                    CliError::Options(format!(
                                        "bad value for --flight-capacity: {value}"
                                    ))
                                })?;
                        }
                        "--event-threads" => {
                            self.event_threads =
                                value.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
                                    CliError::Options(format!(
                                        "bad value for --event-threads: {value}"
                                    ))
                                })?;
                        }
                        "--max-inflight" => {
                            self.max_inflight = value.parse().map_err(|_| {
                                CliError::Options(format!("bad value for --max-inflight: {value}"))
                            })?;
                        }
                        "--deadline-ms" => {
                            self.deadline_ms = Some(value.parse().map_err(|_| {
                                CliError::Options(format!("bad value for --deadline-ms: {value}"))
                            })?);
                        }
                        "--idle-timeout-ms" => {
                            self.idle_timeout_ms =
                                value.parse().ok().filter(|n| *n > 0).map_or_else(
                                    || {
                                        Err(CliError::Options(format!(
                                            "bad value for --idle-timeout-ms: {value}"
                                        )))
                                    },
                                    |n| Ok(Some(n)),
                                )?;
                        }
                        _ => {
                            self.threads =
                                value.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
                                    CliError::Options(format!("bad value for --threads: {value}"))
                                })?;
                        }
                    }
                }
                _ => remaining.push(arg),
            }
        }
        drop(it);
        *args = remaining;
        Ok(())
    }
}

/// Options of the `trisc status` subcommand (`--host`, `--port`,
/// `--journal`): an ops-plane client that renders a running server's
/// `statusz`/`journal` endpoints human-readably. The client itself lives
/// in the `rtserver` crate next to the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusOptions {
    /// Server host to query.
    pub host: String,
    /// Server port to query.
    pub port: u16,
    /// How many recent flight records to render from the journal.
    pub journal: usize,
}

impl Default for StatusOptions {
    /// Loopback on the default serve port, last 10 records.
    fn default() -> Self {
        StatusOptions { host: "127.0.0.1".to_string(), port: 7227, journal: 10 }
    }
}

impl StatusOptions {
    /// Consumes recognized `--flag value` pairs from an argument list,
    /// leaving the rest untouched.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Options`] for malformed values or a flag
    /// missing its value.
    pub fn parse_from(&mut self, args: &mut Vec<String>) -> Result<(), CliError> {
        let mut remaining = Vec::with_capacity(args.len());
        let mut it = args.drain(..);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--host" | "--port" | "--journal" => {
                    let value = it
                        .next()
                        .ok_or_else(|| CliError::Options(format!("{arg} needs a value")))?;
                    match arg.as_str() {
                        "--host" => self.host = value,
                        "--port" => {
                            self.port = value.parse().map_err(|_| {
                                CliError::Options(format!("bad value for --port: {value}"))
                            })?;
                        }
                        _ => {
                            self.journal = value.parse().map_err(|_| {
                                CliError::Options(format!("bad value for --journal: {value}"))
                            })?;
                        }
                    }
                }
                _ => remaining.push(arg),
            }
        }
        drop(it);
        *args = remaining;
        Ok(())
    }
}

/// Errors surfaced to the command-line user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad command-line usage.
    Usage(String),
    /// Bad option values.
    Options(String),
    /// Assembly failed.
    Asm(String),
    /// Execution failed.
    Exec(String),
    /// Analysis failed.
    Analysis(String),
    /// Simulation failed.
    Sim(String),
    /// A referenced variant does not exist.
    UnknownVariant(String),
    /// Reading a file failed.
    Io(String),
    /// A system spec file was malformed.
    Spec(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage: {m}"),
            CliError::Options(m) => write!(f, "bad options: {m}"),
            CliError::Asm(m) => write!(f, "assembly failed: {m}"),
            CliError::Exec(m) => write!(f, "execution failed: {m}"),
            CliError::Analysis(m) => write!(f, "analysis failed: {m}"),
            CliError::Sim(m) => write!(f, "simulation failed: {m}"),
            CliError::UnknownVariant(v) => write!(f, "unknown variant `{v}`"),
            CliError::Io(m) => write!(f, "io error: {m}"),
            CliError::Spec(m) => write!(f, "bad system spec: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = CacheOptions::default();
        assert_eq!(o.geometry().unwrap(), rtcache::CacheGeometry::paper_l1());
        assert_eq!(o.model().miss_penalty, 20);
    }

    #[test]
    fn parses_and_removes_flags() {
        let mut o = CacheOptions::default();
        let mut args: Vec<String> = ["file.s", "--ways", "2", "--cmiss", "40", "--keep"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        o.parse_from(&mut args).unwrap();
        assert_eq!(o.ways, 2);
        assert_eq!(o.cmiss, 40);
        assert_eq!(args, vec!["file.s".to_string(), "--keep".to_string()]);
    }

    #[test]
    fn rejects_bad_values() {
        let mut o = CacheOptions::default();
        let mut args: Vec<String> = ["--sets", "many"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(o.parse_from(&mut args), Err(CliError::Options(_))));
        let mut args: Vec<String> = vec!["--sets".to_string()];
        assert!(matches!(o.parse_from(&mut args), Err(CliError::Options(_))));
    }

    #[test]
    fn invalid_geometry_is_an_options_error() {
        let o = CacheOptions { sets: 3, ways: 4, line: 16, cmiss: 20 };
        assert!(matches!(o.geometry(), Err(CliError::Options(_))));
    }

    #[test]
    fn serve_options_parse_and_validate() {
        let mut o = ServeOptions::default();
        assert!(o.threads > 0);
        let mut args: Vec<String> =
            ["--port", "0", "--threads", "3", "spare"].iter().map(|s| s.to_string()).collect();
        o.parse_from(&mut args).unwrap();
        assert_eq!(o.port, 0);
        assert_eq!(o.threads, 3);
        assert_eq!(args, vec!["spare".to_string()]);
        assert_eq!(o.trace_out, None);
        let mut args: Vec<String> =
            ["--trace-out", "t.json"].iter().map(|s| s.to_string()).collect();
        o.parse_from(&mut args).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("t.json"));
        let mut bad: Vec<String> = ["--threads", "0"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(ServeOptions::default().parse_from(&mut bad), Err(CliError::Options(_))));
        let mut bad: Vec<String> = vec!["--port".to_string(), "high".to_string()];
        assert!(matches!(ServeOptions::default().parse_from(&mut bad), Err(CliError::Options(_))));
    }

    #[test]
    fn serve_options_parse_flight_flags() {
        let mut o = ServeOptions::default();
        assert_eq!(o.slow_ms, None);
        assert_eq!(o.flight_capacity, 512);
        let mut args: Vec<String> = ["--slow-ms", "250", "--flight-capacity", "64", "rest"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        o.parse_from(&mut args).unwrap();
        assert_eq!(o.slow_ms, Some(250));
        assert_eq!(o.flight_capacity, 64);
        assert_eq!(args, vec!["rest".to_string()]);
        let mut bad: Vec<String> = ["--slow-ms", "soon"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(ServeOptions::default().parse_from(&mut bad), Err(CliError::Options(_))));
        let mut bad: Vec<String> =
            ["--flight-capacity", "0"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(ServeOptions::default().parse_from(&mut bad), Err(CliError::Options(_))));
    }

    #[test]
    fn serve_options_parse_reactor_flags() {
        let mut o = ServeOptions::default();
        assert_eq!(o.event_threads, 2);
        assert_eq!(o.max_inflight, 256);
        assert_eq!(o.deadline_ms, None);
        assert_eq!(o.idle_timeout_ms, None);
        let mut args: Vec<String> = [
            "--event-threads",
            "4",
            "--max-inflight",
            "0",
            "--deadline-ms",
            "250",
            "--idle-timeout-ms",
            "30000",
            "rest",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        o.parse_from(&mut args).unwrap();
        assert_eq!(o.event_threads, 4);
        assert_eq!(o.max_inflight, 0, "a zero cap sheds everything (tests rely on it)");
        assert_eq!(o.deadline_ms, Some(250));
        assert_eq!(o.idle_timeout_ms, Some(30_000));
        assert_eq!(args, vec!["rest".to_string()]);
        for bad in [
            ["--event-threads", "0"],
            ["--idle-timeout-ms", "0"],
            ["--max-inflight", "lots"],
            ["--deadline-ms", "soon"],
        ] {
            let mut args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                matches!(ServeOptions::default().parse_from(&mut args), Err(CliError::Options(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn status_options_parse() {
        let mut o = StatusOptions::default();
        assert_eq!((o.host.as_str(), o.port, o.journal), ("127.0.0.1", 7227, 10));
        let mut args: Vec<String> = ["--port", "9000", "--journal", "25", "--host", "::1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        o.parse_from(&mut args).unwrap();
        assert_eq!((o.host.as_str(), o.port, o.journal), ("::1", 9000, 25));
        assert!(args.is_empty());
        let mut bad: Vec<String> = ["--journal", "many"].iter().map(|s| s.to_string()).collect();
        assert!(matches!(StatusOptions::default().parse_from(&mut bad), Err(CliError::Options(_))));
    }

    #[test]
    fn error_display() {
        assert!(CliError::Usage("trisc asm FILE".into()).to_string().starts_with("usage"));
        assert!(CliError::Spec("line 3".into()).to_string().contains("line 3"));
    }
}

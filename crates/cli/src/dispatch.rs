//! Argument dispatch for the `trisc` binary, kept in the library so it is
//! unit-testable without spawning processes.

use std::path::Path;

use crate::options::{CacheOptions, CliError, ServeOptions, StatusOptions};
use crate::spec::{SpecTask, SystemSpec};
use crate::store::ArtifactStore;
use crate::{cmd_asm, cmd_disasm, cmd_run, run_crpd, run_footprint, run_sim, run_wcet, run_wcrt};

/// The usage line printed on bad invocations and `--help`.
pub const USAGE: &str =
    "trisc <asm|disasm|run|wcet|footprint|crpd|wcrt|sim|explore|serve|status> ... \
     (wcrt/crpd/explore take --trace-out TRACE.json; wcrt takes --explain)";

/// A fully parsed `trisc` invocation.
///
/// Most subcommands run to completion inside [`parse`] and yield their
/// output text; `serve` and `explore` cannot (the daemon and the sweep
/// engine live in crates that depend on this one), so they are returned
/// as data for the binary to act on.
#[derive(Debug)]
pub enum Invocation {
    /// A one-shot command that already ran; print this and exit.
    Output(String),
    /// `trisc serve`: start the analysis daemon with these options.
    Serve(ServeOptions),
    /// `trisc status`: query a running daemon's metrics/journal endpoints
    /// and render them for a terminal.
    Status(StatusOptions),
    /// `trisc explore GRID`: run a design-space sweep over the grid file.
    Explore {
        /// Path to the grid file declaring the swept axes.
        grid: String,
        /// Chrome-trace output path from `--trace-out`, if given.
        trace_out: Option<String>,
    },
}

/// Parses one `trisc` invocation (`args` excludes the program name),
/// running one-shot commands eagerly.
///
/// # Errors
///
/// Returns a [`CliError`] for bad usage or any underlying failure.
pub fn parse(mut args: Vec<String>) -> Result<Invocation, CliError> {
    if args.first().map(String::as_str) == Some("serve") {
        args.remove(0);
        let mut opts = ServeOptions::default();
        opts.parse_from(&mut args)?;
        if let Some(extra) = args.first() {
            return Err(CliError::Usage(format!(
                "unexpected argument `{extra}`; trisc serve [--host HOST] [--port PORT] [--threads N] \
                 [--event-threads N] [--max-inflight N] [--deadline-ms MS] [--idle-timeout-ms MS] \
                 [--trace-out TRACE.json]"
            )));
        }
        return Ok(Invocation::Serve(opts));
    }
    if args.first().map(String::as_str) == Some("status") {
        args.remove(0);
        let mut opts = StatusOptions::default();
        opts.parse_from(&mut args)?;
        if let Some(extra) = args.first() {
            return Err(CliError::Usage(format!(
                "unexpected argument `{extra}`; trisc status [--host HOST] [--port PORT] [--journal N]"
            )));
        }
        return Ok(Invocation::Status(opts));
    }
    if args.first().map(String::as_str) == Some("explore") {
        args.remove(0);
        let trace_out = take_flag_value(&mut args, "--trace-out")?;
        let [grid] = args.as_slice() else {
            return Err(CliError::Usage("trisc explore GRID [--trace-out TRACE.json]".into()));
        };
        return Ok(Invocation::Explore { grid: grid.clone(), trace_out });
    }
    dispatch(args).map(Invocation::Output)
}

fn read(path: &str) -> Result<(String, String), CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    let name =
        Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or("program").to_string();
    Ok((name, text))
}

/// The spec a file-level command (`wcet`, `footprint`, `crpd`) runs:
/// one task per file, named by its stem, under the command-line cache
/// options; later files preempt earlier ones. Returns the sources read,
/// in task order.
fn file_spec(cache: CacheOptions, files: &[String]) -> Result<(SystemSpec, Vec<String>), CliError> {
    let mut tasks = Vec::with_capacity(files.len());
    let mut sources = Vec::with_capacity(files.len());
    for (i, file) in files.iter().enumerate() {
        let priority = u32::try_from(files.len() - i).expect("one or two files");
        let (name, text) = read(file)?;
        tasks.push(SpecTask { name, source: file.into(), period: u64::MAX, priority });
        sources.push(text);
    }
    Ok((SystemSpec { cache, ctx_switch: 0, tasks }, sources))
}

/// Extracts `--flag VALUE` from `args`, removing both tokens.
///
/// # Errors
///
/// Returns [`CliError::Usage`] if the flag is present without a value.
pub fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(CliError::Usage(format!("{flag} needs a value")));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Extracts a valueless `--flag` from `args`, returning whether it was
/// present (every occurrence is removed).
pub fn take_bool_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Runs `f` in an `rtobs` session on the calling thread when `trace_out`
/// names a path, then writes the Chrome trace there. With no path the
/// command runs bare: collection stays disabled and costs nothing.
///
/// # Errors
///
/// Returns `f`'s error, or an I/O error writing the trace.
pub fn with_recorder(
    trace_out: Option<&str>,
    f: impl FnOnce() -> Result<String, CliError>,
) -> Result<String, CliError> {
    let Some(path) = trace_out else { return f() };
    let session = rtobs::begin();
    let out = f()?;
    session
        .recorder()
        .write_chrome_trace(Path::new(path))
        .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    Ok(out)
}

/// Runs one `trisc` invocation (`args` excludes the program name) and
/// returns the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] for bad usage or any underlying failure; the
/// binary prints it to stderr and exits non-zero.
pub fn dispatch(mut args: Vec<String>) -> Result<String, CliError> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(format!("{USAGE}\n"));
    }
    let Some(command) = args.first().cloned() else {
        return Err(CliError::Usage(USAGE.into()));
    };
    args.remove(0);
    let mut cache = CacheOptions::default();
    cache.parse_from(&mut args)?;
    match command.as_str() {
        "asm" | "disasm" => {
            let [file] = args.as_slice() else {
                return Err(CliError::Usage(format!("trisc {command} FILE.s")));
            };
            let (name, text) = read(file)?;
            if command == "asm" {
                cmd_asm(&name, &text)
            } else {
                cmd_disasm(&name, &text)
            }
        }
        "run" => {
            let variant = take_flag_value(&mut args, "--variant")?;
            let [file] = args.as_slice() else {
                return Err(CliError::Usage("trisc run FILE.s [--variant NAME]".into()));
            };
            let (name, text) = read(file)?;
            cmd_run(&name, &text, variant.as_deref())
        }
        "wcet" | "footprint" => {
            let [_] = args.as_slice() else {
                return Err(CliError::Usage(format!("trisc {command} FILE.s [cache options]")));
            };
            let (spec, sources) = file_spec(cache, &args)?;
            let run = if command == "wcet" { run_wcet } else { run_footprint };
            run(&ArtifactStore::default(), &spec, &sources)
        }
        "crpd" => {
            let trace_out = take_flag_value(&mut args, "--trace-out")?;
            let [_, _] = args.as_slice() else {
                return Err(CliError::Usage(
                    "trisc crpd LOW.s HIGH.s [cache options] [--trace-out TRACE.json]".into(),
                ));
            };
            let (spec, sources) = file_spec(cache, &args)?;
            with_recorder(trace_out.as_deref(), || {
                run_crpd(&ArtifactStore::default(), &spec, &sources)
            })
        }
        "wcrt" => {
            let trace_out = take_flag_value(&mut args, "--trace-out")?;
            let explain = take_bool_flag(&mut args, "--explain");
            let [file] = args.as_slice() else {
                return Err(CliError::Usage(
                    "trisc wcrt SYSTEM.spec [--explain] [--trace-out TRACE.json]".into(),
                ));
            };
            let spec = SystemSpec::load(Path::new(file))?;
            let sources = spec.read_sources()?;
            with_recorder(trace_out.as_deref(), || {
                run_wcrt(&ArtifactStore::default(), &spec, &sources, explain)
            })
        }
        "sim" => {
            let horizon = take_flag_value(&mut args, "--horizon")?
                .map(|v| {
                    v.parse::<u64>().map_err(|_| CliError::Usage(format!("bad horizon `{v}`")))
                })
                .transpose()?;
            let [file] = args.as_slice() else {
                return Err(CliError::Usage("trisc sim SYSTEM.spec [--horizon CYCLES]".into()));
            };
            let spec = SystemSpec::load(Path::new(file))?;
            run_sim(&ArtifactStore::default(), &spec, &spec.read_sources()?, horizon)
        }
        "serve" => {
            Err(CliError::Usage("serve is long-running; use `parse` and the rtserver crate".into()))
        }
        "status" => Err(CliError::Usage(
            "status talks to a live daemon; use `parse` and the rtserver crate".into(),
        )),
        "explore" => Err(CliError::Usage(
            "explore runs in the rtexplore crate; use `parse` and the trisc binary".into(),
        )),
        other => Err(CliError::Usage(format!("unknown command `{other}`; {USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("trisc-dispatch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn help_and_empty_usage() {
        assert!(dispatch(argv(&["--help"])).unwrap().contains("trisc"));
        assert!(matches!(dispatch(vec![]), Err(CliError::Usage(_))));
        assert!(matches!(dispatch(argv(&["frobnicate"])), Err(CliError::Usage(_))));
    }

    #[test]
    fn asm_command_end_to_end() {
        let f = temp_file("ok.s", "start: li r1, 7\nhalt\n");
        let out = dispatch(argv(&["asm", f.to_str().unwrap()])).unwrap();
        assert!(out.contains("program `ok`"));
    }

    #[test]
    fn wcet_respects_cache_flags() {
        let f = temp_file("w.s", "start: li r1, 7\nhalt\n");
        let out = dispatch(argv(&["wcet", f.to_str().unwrap(), "--cmiss", "40", "--sets", "64"]))
            .unwrap();
        assert!(out.contains("Cmiss=40"), "{out}");
        assert!(out.contains("64 sets"), "{out}");
    }

    #[test]
    fn missing_operands_are_usage_errors() {
        for cmd in ["asm", "disasm", "run", "wcet", "footprint", "wcrt", "sim"] {
            assert!(matches!(dispatch(argv(&[cmd])), Err(CliError::Usage(_))), "{cmd}");
        }
        assert!(matches!(dispatch(argv(&["crpd", "one.s"])), Err(CliError::Usage(_))));
    }

    #[test]
    fn take_flag_value_extracts_and_errors() {
        let mut args = argv(&["a", "--variant", "sobel", "b"]);
        assert_eq!(take_flag_value(&mut args, "--variant").unwrap().as_deref(), Some("sobel"));
        assert_eq!(args, argv(&["a", "b"]));
        assert_eq!(take_flag_value(&mut args, "--variant").unwrap(), None);
        let mut dangling = argv(&["--horizon"]);
        assert!(matches!(take_flag_value(&mut dangling, "--horizon"), Err(CliError::Usage(_))));
    }

    #[test]
    fn parse_runs_one_shot_commands() {
        let f = temp_file("p.s", "start: li r1, 7\nhalt\n");
        match parse(argv(&["asm", f.to_str().unwrap()])).unwrap() {
            Invocation::Output(out) => assert!(out.contains("program `p`")),
            other => panic!("expected Output, got {other:?}"),
        }
    }

    #[test]
    fn take_bool_flag_removes_every_occurrence() {
        let mut args = argv(&["sys.spec", "--explain", "--explain"]);
        assert!(take_bool_flag(&mut args, "--explain"));
        assert!(!take_bool_flag(&mut args, "--explain"));
        assert_eq!(args, argv(&["sys.spec"]));
    }

    #[test]
    fn wcrt_explain_and_trace_out_end_to_end() {
        // The acceptance path of the observability layer: one command
        // produces both the breakdown report and a Chrome trace covering
        // every pipeline stage.
        temp_file(
            "hi.s",
            ".data 0x100000\nbuf: .word 1,2,3\n.text 0x1000\nstart: li r1, buf\nld r2, 0(r1)\nld r2, 0(r1)\nhalt\n",
        );
        temp_file(
            "lo.s",
            ".data 0x100400\nbuf: .word 7\n.text 0x2000\nstart: li r1, buf\nld r2, 0(r1)\nhalt\n",
        );
        let spec = temp_file(
            "explain.spec",
            "cache 64 2 16\ncmiss 20\nccs 50\ntask hi hi.s 5000 1\ntask lo lo.s 50000 2\n",
        );
        let trace = spec.with_file_name("explain-trace.json");
        let out = dispatch(argv(&[
            "wcrt",
            spec.to_str().unwrap(),
            "--explain",
            "--trace-out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("WCRT breakdown"), "{out}");
        assert!(out.contains("App. 4: R="), "{out}");
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.contains("\"traceEvents\":["), "{json}");
        for stage in ["assemble", "trace", "ciip", "mumbs", "crpd", "wcrt"] {
            assert!(json.contains(&format!("\"name\":\"{stage}\"")), "missing stage {stage}");
        }
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn wcrt_reports_bad_eq7_inputs_as_typed_errors() {
        // The `trisc` binary prints each `Err` and exits 2.
        let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs");
        let spec = |cmiss: &str, ccs: &str, hi: &str, lo: &str| {
            format!(
                "cache 64 2 16\ncmiss {cmiss}\nccs {ccs}\ntask hi {examples}/hi.s {hi}\n\
                 task lo {examples}/lo.s {lo}\n"
            )
        };
        let max = u64::MAX.to_string();
        for (name, text, expected) in [
            (
                "zero-period.spec",
                spec("20", "50", "0 1", "50000 2"),
                "bad system spec: line 4: period must be at least 1 cycle",
            ),
            (
                "repeated-priority.spec",
                spec("20", "50", "5000 1", "50000 1"),
                "bad system spec: line 5: priority 1 is already task `hi`'s",
            ),
            (
                "cmiss-overflow.spec",
                spec(&max, "50", "5000 1", "50000 2"),
                "analysis failed: estimating WCET of task `hi`: variant `default`: cycle count \
                 overflows 64 bits",
            ),
        ] {
            let path = temp_file(name, &text);
            let err = dispatch(argv(&["wcrt", path.to_str().unwrap()])).unwrap_err();
            assert!(err.to_string().contains(expected), "{name}: {err}");
        }
        // An overflowing preemption cost misses the deadline; the task
        // nothing preempts keeps its WCRT of 79 cycles.
        let path = temp_file("ccs-overflow.spec", &spec("20", &max, "5000 1", "50000 2"));
        let out = dispatch(argv(&["wcrt", path.to_str().unwrap()])).unwrap();
        let row = |c: [&str; 6]| {
            format!(
                "  {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                c[0], c[1], c[2], c[3], c[4], c[5]
            )
        };
        let late = format!("{max}*");
        assert!(out.contains(&row(["hi", "79", "79", "79", "79", "5000"])), "{out}");
        assert!(out.contains(&row(["lo", &late, &late, &late, &late, "50000"])), "{out}");
    }

    #[test]
    fn sim_clock_never_wraps() {
        let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs");
        // A miss penalty that overflows the simulated clock.
        let clock = temp_file(
            "clock.spec",
            &format!(
                "cache 64 2 16\ncmiss 9223372036854775807\ntask hi {examples}/hi.s 5000 1\n\
                 task lo {examples}/lo.s 50000 2\n"
            ),
        );
        let err = dispatch(argv(&["sim", clock.to_str().unwrap()])).unwrap_err();
        assert!(err.to_string().contains("simulated time overflows 64 bits"), "{err}");
        // 2 x period overflows: the default horizon saturates, so both
        // releases below u64::MAX are simulated.
        let long = temp_file(
            "long.spec",
            &format!("cache 64 2 16\ntask hi {examples}/hi.s 9223372036854775809 1\n"),
        );
        let out = dispatch(argv(&["sim", long.to_str().unwrap()])).unwrap();
        assert!(out.starts_with("simulated 9223372036854775828 cycles:"), "{out}");
        assert!(out.contains("hi: 2 jobs"), "{out}");
    }

    #[test]
    fn parse_recognizes_serve() {
        match parse(argv(&["serve", "--port", "0", "--threads", "2"])).unwrap() {
            Invocation::Serve(opts) => {
                assert_eq!(opts.port, 0);
                assert_eq!(opts.threads, 2);
                assert_eq!(opts.host, "127.0.0.1");
                assert_eq!(opts.trace_out, None);
            }
            other => panic!("expected Serve, got {other:?}"),
        }
        // Unknown serve flags are usage errors naming the first
        // unexpected argument.
        for args in [
            &["serve", "--cluster", "p.txt", "--front"][..],
            &["serve", "--node-id", "0"],
            &["serve", "--poller", "poll"],
            &["serve", "--slow-ms", "1"],
            &["serve", "--flight-capacity", "4"],
        ] {
            match parse(argv(args)) {
                Err(CliError::Usage(msg)) => assert!(msg.contains("unexpected argument"), "{msg}"),
                other => panic!("{args:?}: expected a usage error, got {other:?}"),
            }
        }
        assert!(matches!(parse(argv(&["serve", "leftover"])), Err(CliError::Usage(_))));
        // `dispatch` itself points serve users at the daemon crate.
        assert!(matches!(dispatch(argv(&["serve"])), Err(CliError::Usage(_))));
    }

    #[test]
    fn parse_recognizes_status() {
        match parse(argv(&["status", "--port", "9000", "--journal", "3"])).unwrap() {
            Invocation::Status(opts) => {
                assert_eq!(opts.host, "127.0.0.1");
                assert_eq!(opts.port, 9000);
                assert_eq!(opts.journal, 3);
            }
            other => panic!("expected Status, got {other:?}"),
        }
        assert!(matches!(parse(argv(&["status", "leftover"])), Err(CliError::Usage(_))));
        // `dispatch` itself points status users at the daemon crate.
        assert!(matches!(dispatch(argv(&["status"])), Err(CliError::Usage(_))));
    }

    #[test]
    fn parse_recognizes_explore() {
        match parse(argv(&["explore", "sweep.grid"])).unwrap() {
            Invocation::Explore { grid, trace_out } => {
                assert_eq!(grid, "sweep.grid");
                assert_eq!(trace_out, None);
            }
            other => panic!("expected Explore, got {other:?}"),
        }
        match parse(argv(&["explore", "--trace-out", "t.json", "sweep.grid"])).unwrap() {
            Invocation::Explore { grid, trace_out } => {
                assert_eq!(grid, "sweep.grid");
                assert_eq!(trace_out.as_deref(), Some("t.json"));
            }
            other => panic!("expected Explore, got {other:?}"),
        }
        // Missing or extra operands are usage errors.
        assert!(matches!(parse(argv(&["explore"])), Err(CliError::Usage(_))));
        assert!(matches!(parse(argv(&["explore", "a.grid", "b.grid"])), Err(CliError::Usage(_))));
        // `dispatch` itself points explore users at the sweep crate.
        assert!(matches!(dispatch(argv(&["explore"])), Err(CliError::Usage(_))));
    }

    #[test]
    fn bad_horizon_is_usage_error() {
        let f = temp_file("sys.spec", "task a a.s 1 1\n");
        assert!(matches!(
            dispatch(argv(&["sim", f.to_str().unwrap(), "--horizon", "soon"])),
            Err(CliError::Usage(_))
        ));
    }
}

//! The `trisc` binary: one-shot analysis commands plus `trisc serve`
//! and `trisc explore`.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    // `RTOBS=1` records on this thread and the pool threads working for
    // it even without `--trace-out` (no file); `--trace-out` joins it.
    let _env_session = rtobs::env_session();
    match rtcli::parse(std::env::args().skip(1).collect()) {
        Ok(rtcli::Invocation::Output(output)) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Ok(rtcli::Invocation::Serve(opts)) => match rtserver::run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(error) => {
                eprintln!("trisc serve: {error}");
                ExitCode::from(2)
            }
        },
        Ok(rtcli::Invocation::Status(opts)) => match rtserver::ops::run_status(&opts) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(error) => {
                eprintln!("trisc status: {error}");
                ExitCode::from(2)
            }
        },
        Ok(rtcli::Invocation::Explore { grid, trace_out }) => match run_explore(&grid, trace_out) {
            Ok(output) => {
                print!("{output}");
                ExitCode::SUCCESS
            }
            Err(error) => {
                eprintln!("trisc explore: {error}");
                ExitCode::from(2)
            }
        },
        Err(error) => {
            eprintln!("trisc: {error}");
            eprintln!("{}", rtcli::USAGE);
            ExitCode::from(2)
        }
    }
}

/// `trisc explore GRID [--trace-out TRACE.json]`: run the sweep in
/// process, optionally flushing a Chrome trace of the whole run.
fn run_explore(grid: &str, trace_out: Option<String>) -> Result<String, rtcli::CliError> {
    rtcli::with_recorder(trace_out.as_deref(), || rtexplore::cmd_explore(Path::new(grid)))
}

//! The repository benchmark: end-to-end and per-layer timings of the
//! WCRT analyzer on three workloads.
//!
//! ```text
//! bash perfbench/run.sh --workload cold_paper|sweep_sched|serve_edit \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the seven
//! end-to-end metrics; `--trace 1` runs traced and untraced ops in turn
//! and reports every per-layer metric (see `layers.rs`).
//!
//! Every timed phase runs on a one-thread `rtpar` pool the benchmark
//! installs itself, whatever `RTPAR_THREADS` says: on a small shared host
//! a larger pool makes wall time depend on co-tenants, not on the code.

mod cold_paper;
mod layers;
mod measure;
mod serve_edit;
mod sweep_sched;
mod trace;

use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let pool = rtpar::Pool::new(1);
    let outcome = match args.workload.as_str() {
        "cold_paper" => cold_paper::run(&args, &pool),
        "sweep_sched" => sweep_sched::run(&args, &pool),
        "serve_edit" => serve_edit::run(&args, &pool),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` (cold_paper, sweep_sched, serve_edit)"
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload synth_large|synth_sharded|serve_mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a
//! traced run (`--trace 1`) reports the per-layer ledger. Every run
//! checks the program's outputs. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod ledger;
mod serve;
mod synth;

use std::process::ExitCode;

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "synth_large" => synth::synth_large(&args),
        "synth_sharded" => synth::synth_sharded(&args),
        "serve_mixed" => match serve::serve_mixed(&args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: serve_mixed: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` (synth_large|synth_sharded|serve_mixed)"
            );
            return ExitCode::from(2);
        }
    };
    outcome.print(&args.workload, args.seed, args.trace);
    ExitCode::SUCCESS
}

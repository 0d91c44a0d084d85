//! `perfbench`: end-to-end and per-layer benchmark of the `sxv serve`
//! daemon. `perfbench/run.py` builds this binary and calls it twice per
//! run:
//!
//! ```text
//! perfbench gen --workload W --seed N --dir DIR
//! perfbench run --workload W --seed N --seconds S --trace 0|1 --dir DIR [--corrupt-expected]
//! ```
//!
//! `gen` writes the documents and expected answers into `DIR`; `run`
//! measures and prints one JSON result line on stdout. See README.md.

mod affinity;
mod client;
mod gen;
mod replay;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv.first().cloned().ok_or("missing command (gen or run)")?;
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<f64, String> {
        get(flag)?.parse::<f64>().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: if command == "run" { number("--seconds")? } else { 0.0 },
        trace: command == "run" && number("--trace")? != 0.0,
        dir: PathBuf::from(get("--dir")?),
        corrupt: argv.iter().any(|a| a == "--corrupt-expected"),
        command,
    })
}

fn main() -> ExitCode {
    match try_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn try_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let wl = workload::Workload::new(&args.workload, args.seed).ok_or_else(|| {
        format!("unknown workload {:?} (one of {:?})", args.workload, workload::WORKLOADS)
    })?;
    match args.command.as_str() {
        "gen" => {
            gen::generate(&wl, args.seed, &args.dir)?;
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            if args.seconds <= 0.0 {
                return Err("--seconds must be positive".into());
            }
            let inputs = run::Inputs::load(wl, args.seed, &args.dir, args.corrupt)?;
            let out = run::measure(&inputs, args.seconds, args.trace, &args.dir)?;
            let metrics: Vec<String> = out
                .metrics
                .iter()
                .map(|(name, value, unit)| {
                    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                })
                .collect();
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                out.correct,
                out.attempted,
                out.failed,
                metrics.join(", ")
            );
            Ok(if out.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

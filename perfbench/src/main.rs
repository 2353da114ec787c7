//! Command-line entry of the benchmark:
//!
//! ```text
//! perfbench --workload <paper|hot_sharded|durable> --seed <n> --seconds <s>
//!           --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! Prints a human-readable summary, then, as the last line, one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`.
//! Exits 2 without a result line when the arguments are invalid or the
//! workload cannot be set up.

use perfbench::{run, RunConfig, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: Workload::Paper,
        seed: 1,
        seconds: 30.0,
        trace: false,
        scale: Scale::Full,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut workload = None;
    for pair in args.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("flag {} needs a value", pair[0]));
        };
        match key.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (paper|hot_sharded|durable)")
                })?)
            }
            "--seed" => {
                cfg.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not an integer"))?
            }
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?} is not a positive number"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                }
            }
            "--work-dir" => cfg.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            println!("{}", report.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
            ExitCode::from(2)
        }
    }
}

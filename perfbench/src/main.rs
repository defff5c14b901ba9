//! Command-line entry of the benchmark.
//!
//! ```text
//! perfbench --workload <flow_16k|dse_sweep|service_mix> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable block and, as the last line of standard
//! output, one JSON object: the end-to-end metrics of an untraced run or
//! the per-layer metrics of a traced one.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{Settings, WORKLOADS};

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut settings = Settings {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        // Span dumps and snapshots stay inside the benchmark's directory
        // (ignored by git).
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => settings.workload = value.clone(),
            "--seed" => settings.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => settings.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&settings.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            settings.workload
        ));
    }
    if !(settings.seconds > 0.0 && settings.seconds <= 120.0) {
        return Err(format!(
            "--seconds must be in (0, 120], got {}",
            settings.seconds
        ));
    }
    Ok(settings)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse(&args) {
        Ok(settings) => settings,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&settings) {
        Ok(report) if report.ledger.attempted > 0 => {
            println!(
                "seed {} seconds {} trace {} threads {}",
                settings.seed,
                settings.seconds,
                u8::from(settings.trace),
                rayon::current_num_threads()
            );
            print!("{}", report.human());
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("perfbench: {} attempted no operation", settings.workload);
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

//! `perfbench --workload <regen|serve|endure> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints its report, ending with one line of
//! JSON: `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when a
//! correctness check fails or the run errors, 2 on bad arguments.

use std::path::Path;
use std::process::ExitCode;

use perfbench::{execute, Options, USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match Options::parse(&args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The workspace root: the benchmark's package sits one level below.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package has a parent directory");
    match execute(&options, root) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.result);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: a correctness check failed");
                ExitCode::from(1)
            }
        }
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", options.workload);
            ExitCode::from(1)
        }
    }
}

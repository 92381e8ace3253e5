//! Command-line entry point; see the library documentation for the contract.

use pgs_perfbench::{clear_engine_env, parse_args, run, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    clear_engine_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for line in &report.info {
        println!("# {line}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

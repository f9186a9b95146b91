//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a few human-readable lines, then one JSON result line. Exits
//! 2 on a bad command line and 1 when the benchmark cannot run.

use perfbench::run::{golden, run, Args, USAGE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--print-golden"] {
        match golden() {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = match Args::parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.json);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

//! Shared support for the benchmark harnesses that regenerate the
//! paper's tables and figures.
//!
//! Each bench target (`cargo bench -p oraql-bench --bench figN_...`)
//! prints the paper-shaped rows first, then runs a few Criterion
//! measurements of the machinery it exercised. Measured numbers are
//! recorded in `EXPERIMENTS.md`.

use std::path::PathBuf;

use oraql::trace::TraceSink;
use oraql::{Driver, DriverOptions, DriverResult};
use oraql_workloads::{find_case, find_info, CaseInfo, CASE_INFOS};

/// Where the shared trace artifact (probe answers and spans) is
/// written: `$ORAQL_TRACE_OUT` or `BENCH_trace.jsonl` in the working
/// directory. Every suite-shaped
/// bench target records into — and recomputes its effort tables from —
/// this one file, so the numbers in every table trace back to the same
/// probe events.
pub fn trace_artifact() -> PathBuf {
    std::env::var_os("ORAQL_TRACE_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_trace.jsonl"))
}

/// Runs the full ORAQL workflow for one configuration.
pub fn run_config(name: &str) -> (CaseInfo, DriverResult) {
    run_config_traced(name, None)
}

fn run_config_traced(name: &str, sink: Option<&TraceSink>) -> (CaseInfo, DriverResult) {
    let case = find_case(name).unwrap_or_else(|| panic!("unknown config {name}"));
    let info = find_info(name).expect("info");
    let r = Driver::run(
        &case,
        DriverOptions {
            trace: sink.cloned(),
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    (info, r)
}

/// Runs all sixteen configurations (sequentially; each driver is
/// internally deterministic) while recording every probe answer and
/// span into the JSONL trace at [`trace_artifact`]. Consumers re-read that
/// file (via `oraql::trace::read_trace`) instead of keeping their own
/// counters.
pub fn run_all_configs() -> Vec<(CaseInfo, DriverResult)> {
    let path = trace_artifact();
    let sink = TraceSink::to_file(&path)
        .unwrap_or_else(|e| panic!("cannot open trace artifact {}: {e}", path.display()));
    let results = CASE_INFOS
        .iter()
        .map(|i| run_config_traced(i.name, Some(&sink)))
        .collect();
    sink.flush();
    results
}

/// Formats a markdown-ish table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Percentage delta, rendered like the paper (`+115.7%`).
pub fn pct(before: u64, after: u64) -> String {
    if before == 0 {
        return "n/a".into();
    }
    let d = (after as f64 - before as f64) / before as f64 * 100.0;
    format!("{d:+.1}%")
}

/// Prints a header followed by rows, with a separator line.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!(
        "{}",
        row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for r in rows {
        println!("{}", row(r));
    }
}

//! Use case 2 from the paper: **compiler development**.
//!
//! A compiler engineer wants to know which *kinds* of conservatively
//! answered queries matter in practice, to decide where a specialized
//! analysis would pay off. This example runs ORAQL over several proxy
//! configurations and aggregates:
//!
//! * which pass issued the queries that could be answered
//!   optimistically (where better information would be consumed),
//! * which no-alias answers actually changed the executable
//!   (optimism that transformations acted on),
//! * the Fig. 3-style dump of the irreducible pessimistic queries.
//!
//! ```text
//! cargo run --release --example compiler_dev
//! ```

use oraql_suite::oraql::report::{queries_by_pass, render_report, DumpFlags};
use oraql_suite::oraql::{Driver, DriverOptions};
use oraql_suite::workloads;
use std::collections::BTreeMap;

fn main() {
    let configs = ["testsnap", "testsnap_omp", "quicksilver", "minigmg_ompif"];
    let mut by_pass: BTreeMap<String, u64> = BTreeMap::new();
    let mut total_opt = 0u64;
    let mut total_pess = 0u64;
    let mut code_changed = 0usize;

    for name in configs {
        let case = workloads::find_case(name).expect(name);
        let r = Driver::run(&case, DriverOptions::default()).expect("driver");
        total_opt += r.oraql.unique_optimistic;
        total_pess += r.oraql.unique_pessimistic;
        for (pass, n) in queries_by_pass(&r.queries) {
            *by_pass.entry(pass).or_insert(0) += n;
        }
        let changed = r.baseline_run.stats.total_insts() != r.final_run.stats.total_insts();
        code_changed += changed as usize;
        println!(
            "{name:16} opt={:<5} pess={:<3} insts {:>7} -> {:<7} {}",
            r.oraql.unique_optimistic,
            r.oraql.unique_pessimistic,
            r.baseline_run.stats.total_insts(),
            r.final_run.stats.total_insts(),
            if changed {
                "(code changed)"
            } else {
                "(no effect)"
            }
        );
        if r.oraql.unique_pessimistic > 0 && name == "testsnap_omp" {
            println!("--- irreducible pessimistic queries ({name}) ---");
            print!(
                "{}",
                render_report(&r.final_module, &r.queries, DumpFlags::pessimistic_only())
            );
        }
    }

    println!(
        "\n=== queries by issuing pass (across {} configs) ===",
        configs.len()
    );
    let total: u64 = by_pass.values().sum();
    let mut entries: Vec<_> = by_pass.into_iter().collect();
    entries.sort_by_key(|e| std::cmp::Reverse(e.1));
    for (pass, n) in &entries {
        println!(
            "{pass:24} {n:>6}  ({:.1}%)",
            *n as f64 / total as f64 * 100.0
        );
    }
    println!(
        "\ntotals: {total_opt} optimistic vs {total_pess} pessimistic unique queries; \
         {code_changed}/{} configs saw actual code changes",
        configs.len()
    );

    // The takeaway the paper draws: the most valuable specialization
    // target is wherever most answerable queries concentrate.
    let (top_pass, top_n) = &entries[0];
    println!(
        "=> a specialized analysis covering '{top_pass}' queries would serve {:.0}% of the demand",
        *top_n as f64 / total as f64 * 100.0
    );
    assert!(total_opt > total_pess * 10);
    println!("compiler_dev OK");
}

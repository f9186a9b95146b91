//! Determinism of the parallel probing driver: `--jobs 1` and
//! `--jobs N` must take the same bisection path on real workloads —
//! the same raw final decisions, tests run, tests deduced and verified
//! output. (That the trace and the effort counters agree is checked by
//! `tests/probe_accounting.rs`.)

use oraql::{Driver, DriverOptions};
use oraql_workloads as workloads;

fn run_with_jobs(name: &str, jobs: usize) -> oraql::DriverResult {
    let case = workloads::find_case(name).expect(name);
    Driver::run(
        &case,
        DriverOptions {
            jobs,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{name} (jobs={jobs}): {e}"))
}

/// Two workloads that genuinely bisect (not fully optimistic): the
/// parallel driver must reproduce the sequential bisection exactly.
/// Both job counts report an executable-cache hit's stored unique
/// count, and the decisions map that only `jobs > 1` keeps answers a
/// repeated vector with its earlier verdict, so the raw decisions and
/// the tests run and deduced are equal — only compiles move into
/// `tests_dec_cached`.
#[test]
fn parallel_jobs_match_sequential_on_workloads() {
    for name in ["testsnap_omp", "xsbench"] {
        let seq = run_with_jobs(name, 1);
        let par = run_with_jobs(name, 4);
        assert!(!seq.fully_optimistic, "{name}");
        assert_eq!(seq.decisions, par.decisions, "{name}");
        assert_eq!(seq.effort.tests_run, par.effort.tests_run, "{name}");
        assert_eq!(seq.effort.tests_deduced, par.effort.tests_deduced, "{name}");
        assert_eq!(seq.fully_optimistic, par.fully_optimistic, "{name}");
        assert_eq!(
            seq.oraql.unique_pessimistic, par.oraql.unique_pessimistic,
            "{name}"
        );
        assert_eq!(seq.final_run.stdout, par.final_run.stdout, "{name}");
    }
}

/// Parallel runs are deterministic run-to-run: each case probes
/// sequentially with caches of its own, so nothing can change the
/// bisection path.
#[test]
fn parallel_runs_are_repeatable() {
    let a = run_with_jobs("xsbench", 4);
    let b = run_with_jobs("xsbench", 4);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.oraql.unique_pessimistic, b.oraql.unique_pessimistic);
    assert_eq!(a.final_run.stdout, b.final_run.stdout);
}

/// `jobs = 1` is bit-stable run-to-run (same probes, same counters) —
/// the "byte-for-byte reports" half of the determinism contract.
#[test]
fn sequential_runs_are_bit_stable() {
    for name in ["testsnap_omp", "xsbench"] {
        let a = run_with_jobs(name, 1);
        let b = run_with_jobs(name, 1);
        assert_eq!(a.decisions, b.decisions, "{name}");
        assert_eq!(a.effort, b.effort, "{name}");
        assert_eq!(a.final_run.stdout, b.final_run.stdout, "{name}");
    }
}

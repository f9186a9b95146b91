//! Chaos suite for the probe sandbox: real workloads probed under a
//! deterministic fault-injection plan. The contract under any plan:
//!
//! * no panic ever escapes the driver (`Driver::run` returns, and every
//!   suite sibling is unaffected),
//! * verification still holds — a quarantined probe degrades to
//!   pessimistic may-alias, never to a silently-wrong no-alias, so the
//!   final output always matches the baseline,
//! * at `jobs = 1` the whole run (decisions, failure counters, effort)
//!   is a pure function of the fault-plan seed: two runs are identical.

use std::sync::Arc;
use std::time::Duration;

use oraql::faults::{quiet_injected_panics, Rate};
use oraql::{
    run_suite, Driver, DriverOptions, DriverResult, FaultInjector, FaultPlan, FaultSite, TestCase,
    Verifier,
};
use oraql_workloads as workloads;

/// Small-but-real cases that keep the matrix fast; `testsnap_omp` and
/// `xsbench` genuinely bisect, `gridmini` exercises device code.
const CASES: [&str; 3] = ["testsnap_omp", "xsbench", "gridmini"];

fn chaos_run(name: &str, plan: FaultPlan, jobs: usize) -> DriverResult {
    quiet_injected_panics();
    let case = workloads::find_case(name).expect(name);
    Driver::run(
        &case,
        DriverOptions {
            jobs,
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{name}: chaos run must not fail the driver: {e}"))
}

/// Asserts the final output still verifies, the same way the driver
/// does it: against the baseline output (plus any extra references),
/// with the case's ignore patterns excusing volatile lines.
fn assert_verifies(case: &TestCase, r: &DriverResult) {
    let mut refs = vec![r.baseline_run.stdout.clone()];
    refs.extend(case.extra_references.iter().cloned());
    let v = Verifier::new(refs, &case.ignore_patterns);
    if let Err(m) = v.check(&r.final_run.stdout) {
        panic!("{}: final output failed verification: {m}", case.name);
    }
}

/// Seed matrix at `jobs = 1`: every seed is deterministic (two runs
/// agree on everything) and always verifies against the baseline.
#[test]
fn chaos_seed_matrix_is_deterministic_and_safe() {
    for seed in [1, 42, 1337] {
        let plan = FaultPlan::uniform(seed, 1, 7);
        for name in CASES {
            let a = chaos_run(name, plan, 1);
            let b = chaos_run(name, plan, 1);
            assert_eq!(a.decisions, b.decisions, "{name} seed={seed}");
            assert_eq!(a.failures, b.failures, "{name} seed={seed}");
            assert_eq!(a.effort, b.effort, "{name} seed={seed}");
            assert_eq!(a.final_run.stdout, b.final_run.stdout, "{name} seed={seed}");
            // The safety half: whatever the faults did, the surviving
            // decision vector verifies.
            assert_verifies(&workloads::find_case(name).unwrap(), &a);
        }
    }
}

/// Injected faults only ever *add* pessimism relative to the fault-free
/// run — a fault can hide a safe no-alias answer, but must never smuggle
/// in an unsafe one.
#[test]
fn chaos_never_gains_optimism() {
    for name in CASES {
        let case = workloads::find_case(name).expect(name);
        let healthy = Driver::run(&case, DriverOptions::default()).unwrap();
        let chaotic = chaos_run(name, FaultPlan::uniform(42, 1, 5), 1);
        assert!(
            chaotic.no_alias_oraql <= healthy.no_alias_oraql,
            "{name}: chaos must not add no-alias answers \
             ({} healthy vs {} chaotic)",
            healthy.no_alias_oraql,
            chaotic.no_alias_oraql
        );
        assert_verifies(&case, &chaotic);
    }
}

/// A hostile plan with a watchdog deadline: hangs are cut short,
/// classified, and the run still completes and verifies.
#[test]
fn deadline_cuts_injected_hangs() {
    let plan = FaultPlan::quiet(7).with_rate(FaultSite::ProbeHang, Rate::new(1, 3));
    quiet_injected_panics();
    let case = workloads::find_case("testsnap_omp").expect("case");
    let r = Driver::run(
        &case,
        DriverOptions {
            faults: Some(Arc::new(FaultInjector::new(plan))),
            // Injected hangs sleep well past this deadline (4x, capped
            // at 2s), so every one of them must be caught by the
            // watchdog rather than waited out.
            probe_deadline: Some(Duration::from_millis(250)),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(r.failures.deadlines > 0, "{:?}", r.failures);
    assert_verifies(&case, &r);
}

/// Full suite under a mixed plan at `jobs = 4`: every case completes,
/// none is poisoned by a sibling's faults, and every result verifies.
/// (At `jobs > 1` the fault *stream* interleaves nondeterministically
/// across case threads, so this is a completion + safety check, not a
/// byte-compare.)
#[test]
fn chaos_suite_completes_under_parallel_poisoning() {
    quiet_injected_panics();
    let plan = FaultPlan::uniform(11, 1, 9);
    let cases: Vec<_> = CASES
        .iter()
        .map(|n| workloads::find_case(n).expect(n))
        .collect();
    let results = run_suite(
        &cases,
        &DriverOptions {
            jobs: 4,
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..Default::default()
        },
    );
    for (case, result) in cases.iter().zip(&results) {
        let r = result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: suite case failed under chaos: {e}", case.name));
        assert_verifies(case, r);
    }
}

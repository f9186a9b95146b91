//! Determinism gates for `--jobs N` over the full 16-configuration
//! workload suite. `run_suite` runs up to `N` cases at once and every
//! case runs the sequential driver with caches of its own, so:
//!
//! * every case's raw decisions, effort counters and probe trace (wall
//!   time excluded) are identical at `--jobs 2` and `--jobs 8`, run
//!   after run — including runs cut short by the test budget;
//! * at any job count every case takes the sequential run's bisection
//!   path: raw final decisions, tests run and tests deduced equal
//!   `--jobs 1`, and the optimized programs produce identical verified
//!   output (only the in-memory decisions map, which `--jobs 1` lacks,
//!   moves answers from recompiles to `dec-cache` hits);
//! * chaos: the suite under the `scripts/chaos.sh` seed matrix still
//!   completes with every case verified at `--jobs 4`, and an
//!   always-failing probe environment degrades to quarantined
//!   may-alias — never to unverified output.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use oraql::driver::ProbeEffort;
use oraql::trace::{ProbeEvent, TraceSink};
use oraql::{
    run_suite, DriverOptions, DriverResult, FaultInjector, FaultPlan, FaultSite, TestCase,
};
use oraql_faults::Rate;
use oraql_workloads as workloads;

/// One suite leg: every case at `jobs`, with a trace attached. Panics
/// if any case fails.
fn run_leg(
    jobs: usize,
    max_tests: Option<u64>,
    faults: Option<FaultPlan>,
) -> (Vec<DriverResult>, Vec<ProbeEvent>) {
    let sink = TraceSink::in_memory();
    let defaults = DriverOptions::default();
    let opts = DriverOptions {
        jobs,
        max_tests: max_tests.unwrap_or(defaults.max_tests),
        trace: Some(sink.clone()),
        faults: faults.map(|p| {
            oraql_faults::quiet_injected_panics();
            Arc::new(FaultInjector::new(p))
        }),
        ..defaults
    };
    let results: Vec<DriverResult> = run_suite(&workloads::all_cases(), &opts)
        .into_iter()
        .map(|r| r.expect("suite case failed"))
        .collect();
    (results, sink.events())
}

/// The schedule-independent view of one probe event: everything but
/// the wall time.
type EventKey = (u64, u64, &'static str, bool, u64);

/// Everything a case's run must repeat: raw decisions, effort
/// counters, and its probe-trace keys in per-case sequence order.
#[derive(Debug, PartialEq, Eq)]
struct CaseRun {
    decisions: String,
    effort: ProbeEffort,
    trace: Vec<EventKey>,
}

fn per_case(results: &[DriverResult], events: &[ProbeEvent]) -> BTreeMap<String, CaseRun> {
    let mut traces: BTreeMap<&str, Vec<EventKey>> = BTreeMap::new();
    for e in events {
        traces.entry(e.case.as_str()).or_default().push((
            e.seq,
            e.digest,
            e.kind.as_str(),
            e.pass,
            e.unique,
        ));
    }
    results
        .iter()
        .map(|r| {
            let mut trace = traces.remove(r.name.as_str()).unwrap_or_default();
            trace.sort_unstable();
            let run = CaseRun {
                decisions: r.decisions.render(),
                effort: r.effort,
                trace,
            };
            (r.name.clone(), run)
        })
        .collect()
}

/// What every job count must decide exactly like `--jobs 1`: raw
/// decisions, tests run and tests deduced, per case.
fn bisection_paths(results: &[DriverResult]) -> Vec<(String, String, u64, u64)> {
    results
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.decisions.render(),
                r.effort.tests_run,
                r.effort.tests_deduced,
            )
        })
        .collect()
}

fn stdouts(results: &[DriverResult]) -> Vec<&str> {
    results
        .iter()
        .map(|r| r.final_run.stdout.as_str())
        .collect()
}

/// The sixteen configurations build distinct programs, so no two cases
/// could ever answer each other's probes even through a shared tier.
#[test]
fn workload_modules_are_pairwise_distinct() {
    let cases: Vec<TestCase> = workloads::all_cases();
    assert_eq!(cases.len(), 16);
    let texts: BTreeSet<String> = cases
        .iter()
        .map(|c| oraql_ir::printer::module_str(&(c.build)()))
        .collect();
    assert_eq!(
        texts.len(),
        cases.len(),
        "two configs build identical modules"
    );
}

/// Each case probes sequentially with caches of its own, so `--jobs 2`
/// and `--jobs 8` repeat every case exactly — raw decisions, effort
/// counters and probe trace — run after run. A small test budget cuts
/// the bisecting cases short, and those truncated runs repeat too.
#[test]
fn parallel_runs_repeat_every_case_exactly() {
    let (r2, e2) = run_leg(2, None, None);
    let want = per_case(&r2, &e2);
    assert_eq!(want.len(), 16);
    for (jobs, run) in [(2usize, 2), (8, 1), (8, 2)] {
        let (r, e) = run_leg(jobs, None, None);
        assert_eq!(want, per_case(&r, &e), "jobs {jobs}, run {run}");
    }

    let (t2, te2) = run_leg(2, Some(6), None);
    let (t8, te8) = run_leg(8, Some(6), None);
    let truncated = per_case(&t2, &te2);
    assert!(
        truncated
            .values()
            .zip(want.values())
            .any(|(t, full)| t.effort.tests_run < full.effort.tests_run),
        "the small budget never cut a case short"
    );
    assert_eq!(truncated, per_case(&t8, &te8), "budget-truncated runs");
}

/// One unique-count rule at every job count: each case walks the
/// sequential bisection path exactly — the same raw decisions, tests
/// run and tests deduced as `--jobs 1` — and reaches the same verified
/// program output.
#[test]
fn all_legs_agree_with_sequential_decisions() {
    let (seq, _) = run_leg(1, None, None);
    let want_paths = bisection_paths(&seq);
    let want_out = stdouts(&seq);
    for jobs in [2usize, 8] {
        let (r, _) = run_leg(jobs, None, None);
        assert_eq!(want_paths, bisection_paths(&r), "jobs {jobs}");
        assert_eq!(want_out, stdouts(&r), "jobs {jobs}");
        // (Each case's final output was already verified against its
        // baseline inside the driver — a mismatch would have surfaced
        // as a `FinalBroken` error above.)
    }
}

/// The `scripts/chaos.sh` seed matrix at `--jobs 4`: the suite
/// completes with every case verified — faults degrade probes, never
/// correctness.
#[test]
fn chaos_seeds_complete_verified_at_jobs_4() {
    for seed in [1u64, 42, 1337] {
        let plan = FaultPlan::uniform(seed, 1, 24);
        // `run_leg` unwraps every case: completion means each final
        // program was compiled and verified against its baseline
        // despite the injected faults.
        let (r, _) = run_leg(4, None, Some(plan));
        assert_eq!(r.len(), 16, "seed {seed}");
    }
}

/// An always-failing probe environment quarantines to may-alias: no
/// probe verdict can be proven, so nothing is optimistically kept, and
/// the final programs still verify.
#[test]
fn total_probe_failure_degrades_to_may_alias() {
    let plan = FaultPlan::quiet(3).with_rate(FaultSite::CompilePanic, Rate::always());
    oraql_faults::quiet_injected_panics();
    let opts = DriverOptions {
        jobs: 4,
        max_tests: 12,
        faults: Some(Arc::new(FaultInjector::new(plan))),
        ..Default::default()
    };
    // A subset keeps the budget-bounded walk quick; the gate is about
    // degradation, not coverage.
    let cases: Vec<TestCase> = ["testsnap_omp", "xsbench", "gridmini"]
        .iter()
        .map(|n| workloads::find_case(n).expect(n))
        .collect();
    let results = run_suite(&cases, &opts);
    let mut quarantined = 0u64;
    for r in results {
        let r = r.expect("case must complete despite total probe failure");
        assert!(!r.fully_optimistic, "{}", r.name);
        quarantined += r.failures.quarantined;
    }
    assert!(quarantined > 0, "quarantine never engaged");
}

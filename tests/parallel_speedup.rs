//! Wall-clock contract of `--jobs N`: up to `N` cases probe at once, so
//! their probe latency overlaps and a suite run with `jobs > 1` is
//! measurably faster than the sequential driver whenever probes spend
//! time waiting.
//!
//! In the paper's setting a probe spawns an external compiler and a
//! benchmark run, so the driver mostly waits — exactly the latency this
//! test models by injecting a sleep into the build callback. That makes
//! the test meaningful even on a single-core host: sleeping probes
//! overlap where CPU-bound ones cannot. (On a multi-core host the
//! in-process VM probes of the real workload registry overlap too; see
//! `docs/ARCHITECTURE.md`.)

use std::time::{Duration, Instant};

use oraql::{run_suite, DriverOptions};
use oraql_workloads as workloads;

const PROBE_LATENCY: Duration = Duration::from_millis(30);

/// The named workloads, with `PROBE_LATENCY` of artificial wait added
/// to every module build (i.e. to every probe compile).
fn sleepy_cases(names: &[&str]) -> Vec<oraql::TestCase> {
    names
        .iter()
        .map(|name| {
            let mut case = workloads::find_case(name).expect(name);
            let inner = case.build.clone();
            case.build = std::sync::Arc::new(move || {
                std::thread::sleep(PROBE_LATENCY);
                inner()
            });
            case
        })
        .collect()
}

fn suite_wall(cases: &[oraql::TestCase], jobs: usize) -> Duration {
    let opts = DriverOptions {
        jobs,
        ..Default::default()
    };
    let started = Instant::now();
    for r in run_suite(cases, &opts) {
        r.expect("workload verifies");
    }
    started.elapsed()
}

/// Four workloads, `jobs = 4` vs `jobs = 1`: the parallel suite must be
/// measurably faster. The margin is deliberately loose (25% on dozens
/// of sleeps) so scheduler noise cannot flake the test.
#[test]
fn jobs4_is_measurably_faster_than_jobs1_on_four_workloads() {
    let cases = sleepy_cases(&["testsnap", "testsnap_omp", "gridmini", "xsbench"]);
    let sequential = suite_wall(&cases, 1);
    let parallel = suite_wall(&cases, 4);
    assert!(
        parallel < sequential.mul_f64(0.75),
        "expected jobs=4 ({parallel:?}) to beat jobs=1 ({sequential:?}) by >= 25%"
    );
}

/// The speedup comes from honest overlap, not from skipping probes:
/// both runs reach the same raw decisions and verdicts.
#[test]
fn overlapped_suite_reaches_sequential_verdicts() {
    let cases = sleepy_cases(&["testsnap_omp", "xsbench"]);
    let opts1 = DriverOptions::default();
    let opts4 = DriverOptions {
        jobs: 4,
        ..Default::default()
    };
    let seq = run_suite(&cases, &opts1);
    let par = run_suite(&cases, &opts4);
    for (s, p) in seq.iter().zip(par.iter()) {
        let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
        assert_eq!(s.decisions, p.decisions);
        assert_eq!(s.fully_optimistic, p.fully_optimistic);
        assert_eq!(s.final_run.stdout, p.final_run.stdout);
    }
}

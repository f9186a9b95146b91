//! Probe accounting is one conservation law: every probe answer is
//! counted once, so a case's traced answer kinds, its `ProbeEffort`,
//! its `FailureStats` and the process-wide `oraql_driver_*_total`
//! counters are the same numbers, read off one tally. Checked across
//! every cache-tier set-up (sequential, parallel, store, server) and a
//! fault plan.
//!
//! A single test in a binary of its own: it reads deltas of the
//! process-wide metrics registry, which any concurrently running driver
//! would perturb.

use std::path::PathBuf;
use std::sync::Arc;

use oraql::faults::{quiet_injected_panics, Rate};
use oraql::{
    run_suite, DriverOptions, DriverResult, FaultInjector, FaultPlan, FaultSite, ProbeKind, Store,
    Strategy, TraceSink,
};
use oraql_served::{Client, Server, ServerOptions};
use oraql_workloads as workloads;

/// Two cases that bisect and one fully optimistic device case.
const CASES: [&str; 3] = ["testsnap_omp", "xsbench", "gridmini"];

/// Fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = std::env::temp_dir().join(format!("oraql_accounting_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs [`CASES`] through `run_suite` under `opts` with a fresh trace
/// sink and checks the trace against each case's effort, and the
/// registry's `oraql_driver_*_total` deltas against the sums over cases
/// and the trace.
fn check_leg(leg: &str, opts: DriverOptions) {
    let cases: Vec<_> = CASES
        .iter()
        .map(|n| workloads::find_case(n).expect(n))
        .collect();
    let sink = TraceSink::in_memory();
    let traced = DriverOptions {
        trace: Some(sink.clone()),
        ..opts.clone()
    };
    let before = oraql_obs::global().snapshot();
    let results: Vec<DriverResult> = run_suite(&cases, &traced)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{leg}: {e}")))
        .collect();
    let delta = oraql_obs::global().snapshot().delta(&before);
    let events = sink.events();
    let of_kind = |case: Option<&str>, kind: ProbeKind| {
        let n = events.iter().filter(|e| e.kind == kind);
        n.filter(|e| case.is_none_or(|c| e.case == c)).count() as u64
    };

    for r in &results {
        let (at, e) = (format!("{leg}/{}", r.name), &r.effort);
        let kind = |k| of_kind(Some(&r.name), k);
        assert_eq!(kind(ProbeKind::Deduced), e.tests_deduced, "{at}");
        assert_eq!(kind(ProbeKind::ServerHit), e.tests_server, "{at}");
        assert_eq!(
            kind(ProbeKind::ExeCacheHit)
                + kind(ProbeKind::DecisionCacheHit)
                + kind(ProbeKind::StoreHit),
            e.tests_cached + e.tests_dec_cached,
            "{at}"
        );
        if opts.faults.is_none() {
            assert_eq!(kind(ProbeKind::Executed), e.tests_run, "{at}");
        }
        if opts.store.is_none() {
            assert_eq!(kind(ProbeKind::ExeCacheHit), e.tests_cached, "{at}");
            assert_eq!(
                kind(ProbeKind::DecisionCacheHit),
                e.tests_dec_cached,
                "{at}"
            );
        }
    }

    let counter = |name: &str| delta.counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        counter("oraql_driver_probes_total"),
        events.len() as u64,
        "{leg}"
    );
    for k in ProbeKind::ALL {
        let name = format!("oraql_driver_probe_{}_total", k.as_str().replace('-', "_"));
        assert_eq!(counter(&name), of_kind(None, k), "{leg}: {name}");
    }
    let sum = |f: fn(&DriverResult) -> u64| results.iter().map(f).sum::<u64>();
    for (names, want) in [
        (
            &["oraql_driver_funnel_compiles_total"][..],
            sum(|r| r.effort.compiles),
        ),
        (
            &["oraql_driver_funnel_vm_runs_total"],
            sum(|r| r.effort.tests_run),
        ),
        (
            &[
                "oraql_driver_funnel_exe_cache_hits_total",
                "oraql_driver_funnel_store_exe_hits_total",
            ],
            sum(|r| r.effort.tests_cached),
        ),
        (
            &[
                "oraql_driver_funnel_dec_cache_hits_total",
                "oraql_driver_funnel_store_dec_hits_total",
            ],
            sum(|r| r.effort.tests_dec_cached),
        ),
        (
            &[
                "oraql_driver_funnel_server_dec_hits_total",
                "oraql_driver_funnel_server_exe_hits_total",
            ],
            sum(|r| r.effort.tests_server),
        ),
        // The (tier, key space) funnel agrees with the traced kinds.
        (
            &["oraql_driver_funnel_exe_cache_hits_total"],
            of_kind(None, ProbeKind::ExeCacheHit),
        ),
        (
            &["oraql_driver_funnel_dec_cache_hits_total"],
            of_kind(None, ProbeKind::DecisionCacheHit),
        ),
        (
            &[
                "oraql_driver_funnel_store_dec_hits_total",
                "oraql_driver_funnel_store_exe_hits_total",
            ],
            of_kind(None, ProbeKind::StoreHit),
        ),
        (&["oraql_driver_retries_total"], sum(|r| r.failures.retries)),
        (
            &["oraql_driver_quarantined_total"],
            sum(|r| r.failures.quarantined),
        ),
    ] {
        let got: u64 = names.iter().map(|n| counter(n)).sum();
        assert_eq!(got, want, "{leg}: {names:?}");
    }
}

#[test]
fn every_probe_answer_is_counted_once_everywhere() {
    quiet_injected_panics();
    let scratch = Scratch::new();
    let faults = |plan| Some(Arc::new(FaultInjector::new(plan)));

    check_leg("jobs1", DriverOptions::default());
    check_leg(
        "jobs2",
        DriverOptions {
            jobs: 2,
            ..Default::default()
        },
    );

    let store = Arc::new(Store::open(scratch.0.join("verdicts.journal")).unwrap());
    check_leg(
        "store-cold",
        DriverOptions {
            store: Some(Arc::clone(&store)),
            ..Default::default()
        },
    );
    check_leg(
        "store-warm-corrupt",
        DriverOptions {
            store: Some(Arc::clone(&store)),
            faults: faults(
                FaultPlan::quiet(5).with_rate(FaultSite::StoreReadCorrupt, Rate::new(1, 3)),
            ),
            ..Default::default()
        },
    );

    let server = Server::start(&ServerOptions::new(scratch.0.join("data")), "127.0.0.1:0").unwrap();
    check_leg(
        "server-cold",
        DriverOptions {
            server: Some(Arc::new(Client::new(&server.addr()))),
            ..Default::default()
        },
    );
    check_leg(
        "server-warm-fresh-store",
        DriverOptions {
            store: Some(Arc::new(
                Store::open(scratch.0.join("fresh.journal")).unwrap(),
            )),
            server: Some(Arc::new(Client::new(&server.addr()))),
            ..Default::default()
        },
    );
    // The other strategy probes decision vectors the chunked legs never
    // did, and some of them compile to executables those legs did: the
    // executable-hash hits of the store and of the server.
    check_leg(
        "store-frequency",
        DriverOptions {
            strategy: Strategy::FrequencySpace,
            store: Some(store),
            ..Default::default()
        },
    );
    check_leg(
        "server-frequency",
        DriverOptions {
            strategy: Strategy::FrequencySpace,
            server: Some(Arc::new(Client::new(&server.addr()))),
            ..Default::default()
        },
    );
    server.shutdown().unwrap();

    check_leg(
        "faults",
        DriverOptions {
            faults: faults(FaultPlan::uniform(42, 1, 5)),
            ..Default::default()
        },
    );
}

//! Probe accounting is one conservation law: every probe answer is
//! counted once, so a case's traced answer kinds and its `ProbeEffort`
//! are the same numbers, read off one tally. Checked across every
//! cache-tier set-up (sequential, parallel, store, server) and a fault
//! plan.

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
/// sink and checks the trace against each case's effort.
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
    let results: Vec<DriverResult> = run_suite(&cases, &traced)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{leg}: {e}")))
        .collect();
    let events = sink.events();

    for r in &results {
        let (at, e) = (format!("{leg}/{}", r.name), &r.effort);
        let kind = |k| {
            let n = events.iter().filter(|ev| ev.kind == k && ev.case == r.name);
            n.count() as u64
        };
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

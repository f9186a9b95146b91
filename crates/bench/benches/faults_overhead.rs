//! Probe-sandbox overhead benchmark.
//!
//! The hardened probe path wraps every attempt in `catch_unwind` (plus
//! an injector draw when a fault plan is armed). This bench quantifies
//! what that costs on *healthy* runs by driving the full workload suite
//! two ways:
//!
//! * `faultfree` — the sandbox's fast path: no plan. This is the
//!   configuration directly comparable to the pre-sandbox driver
//!   (whose suite wall clock is recorded as `cold_total_ms` in
//!   `BENCH_store.json`, written before the sandbox existed).
//! * `quiet_plan` — a fault plan armed whose rates are all zero: every
//!   attempt pays the injector draws but no fault ever fires.
//!
//! Writes `$ORAQL_BENCH_OUT` (default `BENCH_faults.json`): the two
//! totals, the quiet-plan/fault-free ratio, and — when a prior
//! `BENCH_store.json` is readable — the fault-free total against that
//! pre-sandbox recording. Not a criterion bench: the JSON artifact is
//! the point, and each pass is a full driver-suite run.

use std::sync::Arc;
use std::time::Instant;

use oraql::{Driver, DriverOptions, FaultInjector, FaultPlan};

fn run_suite_pass(opts_for: impl Fn() -> DriverOptions, label: &str) -> f64 {
    let t = Instant::now();
    for info in &oraql_workloads::CASE_INFOS {
        let case = oraql_workloads::find_case(info.name).expect("registered");
        let r = Driver::run(&case, opts_for()).unwrap_or_else(|e| panic!("{}: {e}", info.name));
        assert!(
            r.failures.is_quiet(),
            "{label}/{}: healthy pass saw sandbox events: {:?}",
            info.name,
            r.failures
        );
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Pulls `"key": <number>` out of a flat JSON artifact (std-only).
fn json_number(src: &str, key: &str) -> Option<f64> {
    let at = src.find(&format!("\"{key}\""))?;
    let rest = &src[at..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn main() {
    let out = std::env::var("ORAQL_BENCH_OUT").unwrap_or_else(|_| "BENCH_faults.json".into());

    // Warm-up: touch every case once so lazy module construction and
    // allocator growth land outside the measured passes.
    let _ = run_suite_pass(DriverOptions::default, "warmup");

    let faultfree = run_suite_pass(DriverOptions::default, "faultfree");
    let quiet_plan = run_suite_pass(
        || DriverOptions {
            faults: Some(Arc::new(FaultInjector::new(FaultPlan::quiet(42)))),
            ..Default::default()
        },
        "quiet_plan",
    );

    let quiet_ratio = quiet_plan / faultfree;
    println!("fault-free suite:  {faultfree:>9.1} ms");
    println!("quiet plan armed:  {quiet_plan:>9.1} ms ({quiet_ratio:.3}x)");

    // Pre-sandbox reference: the cold suite total recorded by the
    // store_warm bench before the sandbox landed. Same workloads, same
    // sequential driver, one extra store write-through tier (so the
    // comparison is conservative against us). Cargo runs benches from
    // the package directory, so resolve it next to our own output.
    let store_json = std::path::Path::new(&out)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .map(|d| d.join("BENCH_store.json"))
        .unwrap_or_else(|| "BENCH_store.json".into());
    let prior = std::fs::read_to_string(&store_json)
        .ok()
        .and_then(|s| json_number(&s, "cold_total_ms"));
    let (prior_ms, overhead) = match prior {
        Some(p) => {
            let o = faultfree / p;
            println!("pre-sandbox cold reference: {p:.1} ms -> sandbox overhead {o:.3}x");
            (format!("{p:.2}"), format!("{o:.4}"))
        }
        None => {
            println!("pre-sandbox cold reference: BENCH_store.json not found");
            ("null".into(), "null".into())
        }
    };

    let json = format!(
        "{{\n  \"bench\": \"faults_overhead\",\n  \"cases_total\": {},\n  \
         \"faultfree_total_ms\": {faultfree:.2},\n  \
         \"quiet_plan_total_ms\": {quiet_plan:.2},\n  \
         \"quiet_plan_ratio\": {quiet_ratio:.4},\n  \
         \"prior_cold_total_ms\": {prior_ms},\n  \
         \"sandbox_overhead_vs_prior\": {overhead}\n}}\n",
        oraql_workloads::CASE_INFOS.len()
    );
    std::fs::write(&out, json).expect("write bench output");
    println!("wrote {out}");
}

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

use oraql::faults::quiet_injected_panics;
use oraql::{
    run_suite, CompileOptions, Decisions, Driver, DriverOptions, DriverResult, FaultInjector,
    FaultPlan, ProbeKind, Scope, Store, TestCase, TraceSink, Verifier,
};
use oraql_ir::builder::FunctionBuilder;
use oraql_ir::{CmpPred, Module, Ty, Value};
use oraql_vm::{Interpreter, RuntimeError};
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

/// `spin(flag, writer)` loops until it reads a nonzero flag, setting
/// the flag through `writer` on every trip; `main` passes the same cell
/// twice, so the baseline leaves after one trip and prints `1`. An
/// optimistic no-alias answer for the store and the load lets LICM hoist
/// the flag load out of the loop, so the probe spins until its fuel
/// runs out.
fn runaway_case() -> TestCase {
    let mut case = TestCase::new("runaway", || {
        let mut m = Module::new("runaway");
        let spin = {
            let mut b = FunctionBuilder::new(&mut m, "spin", vec![Ty::Ptr, Ty::Ptr], None);
            let (flag, writer) = (b.arg(0), b.arg(1));
            let entry = b.current_block();
            let header = b.new_block();
            let exit = b.new_block();
            b.br(header);
            b.switch_to(header);
            let trips = b.phi(Ty::I64, vec![(entry, Value::ConstInt(0))]);
            b.store(Ty::I64, Value::ConstInt(1), writer);
            let seen = b.load(Ty::I64, flag);
            let next = b.add(trips, Value::ConstInt(1));
            b.add_phi_incoming(trips, header, next);
            let unset = b.cmp(CmpPred::Eq, Ty::I64, seen, Value::ConstInt(0));
            b.cond_br(unset, header, exit);
            b.switch_to(exit);
            b.print("{}", vec![next]);
            b.ret(None);
            b.finish()
        };
        let cell = m.add_global("flag", 8, vec![], false);
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        b.store(Ty::I64, Value::ConstInt(0), Value::Global(cell));
        b.call(spin, vec![Value::Global(cell), Value::Global(cell)], None);
        b.ret(None);
        b.finish();
        m
    });
    case.fuel = 10_000;
    case
}

/// Fuel is the one bound on a probe: an optimistic answer that makes a
/// loop spin ends in a failing executed verdict, with no sandbox event,
/// and that verdict is cached like any other — a warm run replays it
/// without a compile. The final sequence keeps the query pessimistic.
#[test]
fn fuel_ends_a_probe_that_spins() {
    let case = runaway_case();
    let dir = std::env::temp_dir().join(format!("oraql_runaway_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("verdicts.journal");
    let run = || {
        let sink = TraceSink::in_memory();
        let store = Arc::new(Store::open(&journal).unwrap());
        let r = Driver::run(
            &case,
            DriverOptions {
                store: Some(store),
                trace: Some(sink.clone()),
                ..Default::default()
            },
        )
        .expect("a spinning probe must not fail the case");
        (r, sink.events())
    };
    // The all-optimistic compile really spins: only the fuel ends it.
    let spun = oraql::compile(
        &*case.build,
        &CompileOptions::with_oraql(Decisions::all_optimistic(), Scope::everything()),
    );
    let main = spun.module.find_func("main").unwrap();
    let mut vm = Interpreter::new(&spun.module).with_fuel(case.fuel);
    assert_eq!(
        vm.run(main, vec![]).unwrap_err(),
        RuntimeError::FuelExhausted
    );

    let (cold, events) = run();
    assert_eq!(cold.baseline_run.stdout, "1\n");
    let first = &events[0];
    assert_eq!((first.kind, first.pass), (ProbeKind::Executed, false));
    assert!(!cold.fully_optimistic);
    assert!(cold.failures.is_quiet(), "{:?}", cold.failures);
    assert!(cold.oraql.unique_pessimistic >= 1, "{:?}", cold.oraql);
    assert_verifies(&case, &cold);

    let (warm, events) = run();
    assert_eq!(warm.effort.compiles, 0, "{:?}", warm.effort);
    assert_eq!(
        (events[0].kind, events[0].pass),
        (ProbeKind::StoreHit, false)
    );
    assert_eq!(warm.decisions, cold.decisions);
    let _ = std::fs::remove_dir_all(&dir);
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

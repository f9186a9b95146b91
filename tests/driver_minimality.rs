//! Local maximality of the driver's result (DESIGN §5): every `0` in
//! the final sequence is necessary — flipping any single pessimistic
//! decision to optimistic breaks verification. (The paper calls the
//! result "almost optimal": a greedy search cannot guarantee a global
//! optimum, but each kept pessimistic answer must be individually
//! justified.) Checked on xsbench and testsnap_omp, then on every
//! workload and every case of the CI's generated corpus.

use oraql_gen::GenPlan;
use oraql_suite::oraql::compile::{compile, compile_pipeline, Reuse};
use oraql_suite::oraql::{Decisions, Driver, DriverOptions, TestCase, Verifier};
use oraql_suite::vm::Interpreter;

/// Whether the module `d` compiles `source` to, under the case's
/// compile options, prints what `verifier` accepts within the case's
/// fuel.
fn verifies(case: &TestCase, source: &Reuse, d: Decisions, verifier: &Verifier) -> bool {
    let m = compile_pipeline(source, &case.oraql_options(d)).module;
    let Some(main) = m.find_func("main") else {
        return false;
    };
    let mut vm = Interpreter::new(&m).with_fuel(case.fuel);
    vm.run(main, vec![]).is_ok() && verifier.check(vm.stdout()).is_ok()
}

/// Runs the driver on `case` and checks that its final sequence
/// verifies and that flipping any single `0` of it does not. Returns
/// the number of `0`s.
fn assert_minimal(case: &TestCase) -> usize {
    let r = Driver::run(case, DriverOptions::default()).unwrap();
    let Decisions::Explicit { seq, tail } = &r.decisions else {
        panic!("{}: chunked produces explicit sequences", case.name);
    };
    assert!(*tail, "{}: tail beyond the prefix is optimistic", case.name);
    let mut references = vec![r.baseline_run.stdout.clone()];
    references.extend(case.extra_references.iter().cloned());
    let verifier = Verifier::new(references, &case.ignore_patterns);
    let source = Reuse::new((case.build)());
    assert!(
        verifies(case, &source, r.decisions.clone(), &verifier),
        "{}: the final sequence does not verify",
        case.name
    );
    let pessimistic: Vec<usize> = (0..seq.len()).filter(|&i| !seq[i]).collect();
    assert_eq!(pessimistic.len() as u64, r.oraql.unique_pessimistic);
    for &i in &pessimistic {
        let mut flipped = seq.clone();
        flipped[i] = true;
        let d = Decisions::Explicit {
            seq: flipped,
            tail: true,
        };
        assert!(
            !verifies(case, &source, d, &verifier),
            "{}: flipping the 0 at index {i} still verifies",
            case.name
        );
    }
    pessimistic.len()
}

/// The configurations that keep a `0` and their `0`s, over `cases`.
fn minimal_everywhere(cases: &[TestCase]) -> (usize, usize) {
    let zeros: Vec<usize> = cases.iter().map(assert_minimal).collect();
    let kept = zeros.iter().filter(|&&n| n > 0).count();
    (kept, zeros.iter().sum())
}

#[test]
fn every_pessimistic_decision_is_necessary_on_every_workload() {
    let cases = oraql_workloads::all_cases();
    assert_eq!(cases.len(), 16);
    assert_eq!(minimal_everywhere(&cases), (9, 83));
}

#[test]
fn every_pessimistic_decision_is_necessary_on_the_gen_corpus() {
    let plan = GenPlan::parse("seed=2024,cases=64,per=3").expect("plan");
    let (cases, _) = oraql_gen::suite(&plan);
    assert_eq!(cases.len(), 64);
    assert_eq!(minimal_everywhere(&cases), (57, 93));
}

#[test]
fn every_pessimistic_decision_is_necessary_for_xsbench() {
    let case = oraql_workloads::find_case("xsbench").unwrap();
    let r = Driver::run(&case, DriverOptions::default()).unwrap();
    assert!(!r.fully_optimistic);
    let Decisions::Explicit { seq, tail } = &r.decisions else {
        panic!("chunked produces explicit sequences");
    };
    assert!(*tail, "tail beyond the prefix is optimistic");
    let verifier = Verifier::new(vec![r.baseline_run.stdout.clone()], &case.ignore_patterns);

    let pessimistic: Vec<usize> = seq
        .iter()
        .enumerate()
        .filter(|(_, &b)| !b)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(pessimistic.len() as u64, r.oraql.unique_pessimistic);

    for &flip in &pessimistic {
        let mut flipped = seq.clone();
        flipped[flip] = true;
        let d = Decisions::Explicit {
            seq: flipped,
            tail: true,
        };
        let c = compile(&*case.build, &case.oraql_options(d));
        let ok = match Interpreter::run_main(&c.module) {
            Ok(out) => verifier.check(&out.stdout).is_ok(),
            Err(_) => false,
        };
        assert!(
            !ok,
            "flipping pessimistic decision at index {flip} still verifies: \
             the driver kept an unnecessary 0"
        );
    }

    // And the unflipped final sequence does verify.
    let c = compile(&*case.build, &case.oraql_options(r.decisions.clone()));
    let out = Interpreter::run_main(&c.module).unwrap();
    assert!(verifier.check(&out.stdout).is_ok());
}

#[test]
fn testsnap_omp_final_sequence_is_minimal() {
    let case = oraql_workloads::find_case("testsnap_omp").unwrap();
    let r = Driver::run(&case, DriverOptions::default()).unwrap();
    let Decisions::Explicit { seq, .. } = &r.decisions else {
        panic!()
    };
    let verifier = Verifier::new(vec![r.baseline_run.stdout.clone()], &case.ignore_patterns);
    let mut necessary = 0usize;
    let mut total = 0usize;
    for (i, &b) in seq.iter().enumerate() {
        if b {
            continue;
        }
        total += 1;
        let mut flipped = seq.clone();
        flipped[i] = true;
        let c = compile(
            &*case.build,
            &case.oraql_options(Decisions::Explicit {
                seq: flipped,
                tail: true,
            }),
        );
        let ok = match Interpreter::run_main(&c.module) {
            Ok(out) => verifier.check(&out.stdout).is_ok(),
            Err(_) => false,
        };
        if !ok {
            necessary += 1;
        }
    }
    assert_eq!(
        necessary, total,
        "{}/{} pessimistic decisions individually necessary",
        necessary, total
    );
}

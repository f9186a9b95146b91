//! The structural executable key against the printed text it replaces.
//!
//! The driver files probe verdicts under `module_key`, which hashes the
//! fields the printer prints without printing them. Its contract is the
//! text's: within one case, two compiled modules get equal keys exactly
//! when `module_str` prints them equally. A key that separates equal
//! texts loses executable-cache hits; a key that merges different texts
//! answers a probe with another executable's verdict.
//!
//! For each of the 16 configurations and a small `oraql-gen` corpus,
//! this compiles 122 decision vectors as probes do (the pipeline step
//! with ORAQL installed): all-optimistic, all-pessimistic, each single
//! pessimistic flip and each pessimistic prefix up to position 60. It
//! then checks the contract on every pair within the case.

use oraql::compile::{compile_pipeline, Reuse};
use oraql::{Decisions, TestCase};
use oraql_gen::GenPlan;
use oraql_ir::printer::{module_key, module_str};
use std::collections::HashMap;

/// The decision vectors compiled per case.
fn vectors() -> Vec<Decisions> {
    const POSITIONS: usize = 60;
    let mut v = vec![Decisions::all_optimistic(), Decisions::all_pessimistic()];
    for i in 0..POSITIONS {
        let mut seq = vec![true; i + 1];
        seq[i] = false;
        v.push(Decisions::Explicit { seq, tail: true });
    }
    for k in 1..=POSITIONS {
        v.push(Decisions::Explicit {
            seq: vec![false; k],
            tail: true,
        });
    }
    v
}

/// Compiles every vector of `case` and checks key ⇔ text on every pair.
/// Returns (modules compiled, distinct executables).
fn check_case(case: &TestCase) -> (usize, usize) {
    let mut by_text: HashMap<String, u64> = HashMap::new();
    let mut by_key: HashMap<u64, String> = HashMap::new();
    let vectors = vectors();
    let source = Reuse::new((case.build)());
    for d in &vectors {
        let opts = case.oraql_options(d.clone());
        let module = compile_pipeline(&source, &opts).module;
        let (key, text) = (module_key(0, &module), module_str(&module));
        let seen_key = *by_text.entry(text.clone()).or_insert(key);
        assert_eq!(
            seen_key,
            key,
            "{}: equal texts, different keys ({})",
            case.name,
            d.render()
        );
        let seen_text = by_key.entry(key).or_insert_with(|| text.clone());
        assert!(
            *seen_text == text,
            "{}: equal keys {key:#x}, different texts ({})",
            case.name,
            d.render()
        );
    }
    (vectors.len(), by_text.len())
}

#[test]
fn key_equals_text_on_the_workloads() {
    let cases = oraql_workloads::all_cases();
    assert_eq!(cases.len(), 16);
    let (mut modules, mut distinct) = (0, 0);
    for case in &cases {
        let (m, d) = check_case(case);
        modules += m;
        distinct += d;
    }
    assert_eq!(modules, 16 * 122);
    // The vectors reach many executables, and also recompile some: both
    // sides of the contract are exercised.
    assert!(
        distinct > 16 * 2 && distinct < modules,
        "{distinct} of {modules}"
    );
}

#[test]
fn key_equals_text_on_the_gen_corpus() {
    let plan = GenPlan::parse("seed=2024,cases=8,per=3").expect("plan");
    let (cases, _) = oraql_gen::suite(&plan);
    assert_eq!(cases.len(), 8);
    let (mut modules, mut distinct) = (0, 0);
    for case in &cases {
        let (m, d) = check_case(case);
        modules += m;
        distinct += d;
    }
    assert!(
        distinct > 8 && distinct < modules,
        "{distinct} of {modules}"
    );
}

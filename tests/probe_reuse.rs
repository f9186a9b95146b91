//! Probe compiles that reuse decision-free functions, against full ones.
//!
//! The driver's first successful probe compile of a case notes the
//! functions no unique ORAQL query names (`Reuse::decision_free`). Every
//! later probe compile of the case skips the pipeline for them and
//! splices in their bodies from that first compile. A probe reads the
//! optimized module and the ORAQL unique count, so reuse is exact when
//! both equal a full compile's under every decision sequence.
//!
//! This drives the chunked strategy over each of the 16 configurations
//! and over the CI's generated corpus through a prober that compiles
//! every probe twice, in full and reusing, and compares the two. Each
//! verdict comes from running the full compile, so the strategy walks
//! the path the full compiles lead it down. A reuse that also marks a
//! function that consulted the decisions must be caught.

use oraql::compile::{compile, compile_pipeline, CompileOptions, Compiled, Reuse};
use oraql::strategy::{ProbeOutcome, Prober, Strategy};
use oraql::{Decisions, TestCase, Verifier};
use oraql_gen::GenPlan;
use oraql_ir::module::FunctionId;
use oraql_ir::printer::module_str;
use oraql_vm::Interpreter;
use std::collections::HashSet;

/// Picks the functions to reuse from a case's first compile.
type Pick = fn(&Compiled) -> Reuse;

/// Compiles each probe in full and reusing, and answers from the full
/// compile.
struct Twin<'a> {
    case: &'a TestCase,
    verifier: Verifier,
    pick: Pick,
    reuse: Option<Reuse>,
    probes: usize,
    reused: usize,
    /// One line per probe whose two compiles disagree.
    mismatches: Vec<String>,
}

fn unique(c: &Compiled) -> u64 {
    c.oraql.as_ref().map_or(0, |s| s.lock().stats.unique())
}

impl<'a> Twin<'a> {
    fn new(case: &'a TestCase, pick: Pick) -> Self {
        let baseline = compile(&*case.build, &CompileOptions::baseline());
        let mut references = vec![run(case, &baseline).expect("baseline runs")];
        references.extend(case.extra_references.iter().cloned());
        Twin {
            case,
            verifier: Verifier::new(references, &case.ignore_patterns),
            pick,
            reuse: None,
            probes: 0,
            reused: 0,
            mismatches: Vec::new(),
        }
    }

    /// The driver's workflow: the all-optimistic probe, then bisection
    /// if it fails.
    fn drive(mut self) -> Self {
        if !self.probe(&Decisions::all_optimistic()).pass {
            Strategy::Chunked.solve(&mut self);
        }
        self
    }
}

/// The program's stdout, or `None` when it traps or runs out of fuel.
fn run(case: &TestCase, c: &Compiled) -> Option<String> {
    let main = c.module.find_func("main")?;
    let mut vm = Interpreter::new(&c.module).with_fuel(case.fuel);
    vm.run(main, vec![]).ok()?;
    Some(vm.stdout().to_owned())
}

impl Prober for Twin<'_> {
    fn probe(&mut self, d: &Decisions) -> ProbeOutcome {
        let opts = self.case.oraql_options(d.clone());
        let full = compile_pipeline(&*self.case.build, &opts, &Reuse::default());
        let pick = self.pick;
        let reuse = self.reuse.get_or_insert_with(|| pick(&full));
        let reusing = compile_pipeline(&*self.case.build, &opts, reuse);
        self.probes += 1;
        self.reused += reuse.count();
        if module_str(&full.module) != module_str(&reusing.module)
            || unique(&full) != unique(&reusing)
        {
            self.mismatches.push(format!(
                "{} under {}: unique {} vs {}",
                self.case.name,
                d.render(),
                unique(&full),
                unique(&reusing)
            ));
        }
        let pass = run(self.case, &full).is_some_and(|out| self.verifier.check(&out).is_ok());
        ProbeOutcome {
            pass,
            unique: unique(&full),
        }
    }

    fn budget_exceeded(&self) -> bool {
        false
    }

    fn note_deduced(&mut self) {}
}

/// Drives every case with the driver's reuse and checks each probe's
/// two compiles agree. Returns (probes, reused function compiles).
fn check(cases: &[TestCase]) -> (usize, usize) {
    let (mut probes, mut reused) = (0, 0);
    for case in cases {
        let twin = Twin::new(case, Reuse::decision_free).drive();
        assert!(twin.mismatches.is_empty(), "{:#?}", twin.mismatches);
        probes += twin.probes;
        reused += twin.reused;
    }
    (probes, reused)
}

#[test]
fn reusing_probe_compiles_equal_full_ones_on_the_workloads() {
    let cases = oraql_workloads::all_cases();
    assert_eq!(cases.len(), 16);
    let (probes, reused) = check(&cases);
    assert!(probes > 300, "{probes} probes");
    assert!(reused > 0, "no probe reused a function");
}

#[test]
fn reusing_probe_compiles_equal_full_ones_on_the_gen_corpus() {
    let plan = GenPlan::parse("seed=2024,cases=64,per=3").expect("plan");
    let (cases, _) = oraql_gen::suite(&plan);
    assert_eq!(cases.len(), 64);
    let (probes, reused) = check(&cases);
    assert!(probes > 64, "{probes} probes");
    assert!(reused > 0, "no probe reused a function");
}

/// [`Reuse::decision_free`] plus the first function a unique query
/// names.
fn one_consulting_too(c: &Compiled) -> Reuse {
    let named: Vec<FunctionId> = c
        .oraql
        .as_ref()
        .map(|s| s.lock().queries.iter().map(|q| q.func).collect())
        .unwrap_or_default();
    let named_set: HashSet<FunctionId> = named.iter().copied().collect();
    let free = (0..c.module.funcs.len() as u32)
        .map(FunctionId)
        .filter(|f| !named_set.contains(f));
    Reuse::of(c, free.chain(named.first().copied()))
}

/// The gate is not vacuous: a reuse that also marks one function that
/// consulted the decisions disagrees with the full compiles on every
/// configuration (each asks ORAQL something).
#[test]
fn reusing_a_consulting_function_is_caught() {
    for case in oraql_workloads::all_cases() {
        let twin = Twin::new(&case, one_consulting_too).drive();
        assert!(!twin.mismatches.is_empty(), "{}: not caught", case.name);
    }
}

/// The driver counts the functions it splices into its case's effort:
/// `testsnap_omp` compiles 29 probes, and its one function no unique
/// query names is reused by every probe compile after the first.
#[test]
fn driver_counts_reused_functions_in_its_effort() {
    let case = oraql_workloads::find_case("testsnap_omp").unwrap();
    let r = oraql::Driver::run(&case, oraql::DriverOptions::default()).unwrap();
    assert_eq!((r.effort.compiles, r.effort.functions_reused), (29, 28));
}

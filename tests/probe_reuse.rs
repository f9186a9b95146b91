//! Probe compiles that start from a case's template, against full ones.
//!
//! The driver builds each case once. Its first successful probe compile
//! notes the functions no unique ORAQL query names
//! (`Reuse::decision_free`), and `Reuse::keep` puts their optimized
//! bodies into the case's template. Every later probe compile clones
//! the template and skips the pipeline for them, while the analysis
//! chain and the callee summaries read the unoptimized build. A probe
//! reads the optimized module and the ORAQL unique count, so the
//! template is exact when both equal a full compile's under every
//! decision sequence.
//!
//! This drives the chunked strategy over each of the 16 configurations
//! and over the CI's generated corpus through a prober that compiles
//! every probe twice, in full and through the template, and compares
//! the two. Each verdict comes from running the full compile, so the
//! strategy walks the path the full compiles lead it down. A template
//! that also keeps a function that consulted the decisions must be
//! caught.

use oraql::compile::{compile, compile_pipeline, CompileOptions, Compiled, Reuse};
use oraql::strategy::{ProbeOutcome, Prober, Strategy};
use oraql::{Decisions, DriverOptions, TestCase, Verifier};
use oraql_gen::GenPlan;
use oraql_ir::module::FunctionId;
use oraql_ir::printer::module_str;
use oraql_vm::Interpreter;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Picks the functions to keep from a case's first compile.
type Pick = fn(&Compiled) -> Vec<FunctionId>;

/// Compiles each probe in full and through the template, and answers
/// from the full compile.
struct Twin<'a> {
    case: &'a TestCase,
    verifier: Verifier,
    pick: Pick,
    /// The case's one build; nothing kept, so every compile is full.
    full: Reuse,
    /// The same build, keeping what `pick` chose from the first
    /// compile, as the driver does.
    template: Reuse,
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
        let source = (case.build)();
        let baseline = compile(&|| source.clone(), &CompileOptions::baseline());
        let mut references = vec![run(case, &baseline).expect("baseline runs")];
        references.extend(case.extra_references.iter().cloned());
        Twin {
            case,
            verifier: Verifier::new(references, &case.ignore_patterns),
            pick,
            full: Reuse::new(source.clone()),
            template: Reuse::new(source),
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
        let full = compile_pipeline(&self.full, &opts);
        if !self.template.is_kept() {
            self.template.keep(&full, (self.pick)(&full));
        }
        let reusing = compile_pipeline(&self.template, &opts);
        self.probes += 1;
        self.reused += self.template.count();
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

/// Drives every case with the driver's template and checks each probe's
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
fn one_consulting_too(c: &Compiled) -> Vec<FunctionId> {
    let mut funcs = Reuse::decision_free(c);
    let first_named = c
        .oraql
        .as_ref()
        .and_then(|s| s.lock().queries.first().map(|q| q.func));
    funcs.extend(first_named);
    funcs
}

/// The gate is not vacuous: a template that also keeps one function
/// that consulted the decisions disagrees with the full compiles on
/// every configuration (each asks ORAQL something).
#[test]
fn reusing_a_consulting_function_is_caught() {
    for case in oraql_workloads::all_cases() {
        let twin = Twin::new(&case, one_consulting_too).drive();
        assert!(!twin.mismatches.is_empty(), "{}: not caught", case.name);
    }
}

/// The driver counts the functions it reuses into its case's effort:
/// `testsnap_omp` compiles 29 probes, and its one function no unique
/// query names is reused by every probe compile after the first.
#[test]
fn driver_counts_reused_functions_in_its_effort() {
    let case = oraql_workloads::find_case("testsnap_omp").unwrap();
    let r = oraql::Driver::run(&case, DriverOptions::default()).unwrap();
    assert_eq!((r.effort.compiles, r.effort.functions_reused), (29, 28));
}

/// The driver calls a case's `build` once: the baseline, each of
/// `testsnap_omp`'s 29 probe compiles and the final compile start from
/// clones of that one module.
#[test]
fn driver_builds_each_case_once() {
    let mut case = oraql_workloads::find_case("testsnap_omp").unwrap();
    let builds = Arc::new(AtomicUsize::new(0));
    let (inner, counter) = (Arc::clone(&case.build), Arc::clone(&builds));
    case.build = Arc::new(move || {
        counter.fetch_add(1, Ordering::SeqCst);
        inner()
    });
    let r = oraql::Driver::run(&case, DriverOptions::default()).unwrap();
    assert_eq!(r.effort.compiles, 29);
    assert_eq!(builds.load(Ordering::SeqCst), 1);
}

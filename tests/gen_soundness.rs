//! End-to-end soundness gate for generated corpora: the labels that
//! `oraql-gen` constructs must agree with the verdicts the driver
//! actually reaches, under every execution mode we ship — sequential,
//! parallel, and chaos fault injection. The contract:
//!
//! * same plan string → byte-identical corpus on disk,
//! * every labelled violating pair ends pessimistic (zero entries in
//!   `TruthReport::violations`), at any job count,
//! * a wrong label is *caught*, not absorbed: flipping a safe pair to
//!   `Must` fails the run with `DriverError::SoundnessViolation`,
//! * fault injection can cost optimism but never buys it back on an
//!   aliasing pair — the gate stays clean across the chaos seed matrix.

use std::sync::Arc;

use oraql_suite::gen::{resolve, suite, write_corpus, GenPlan, Motif};
use oraql_suite::oraql::faults::quiet_injected_panics;
use oraql_suite::oraql::{
    run_suite, Driver, DriverError, DriverOptions, FaultInjector, FaultPlan, GroundTruth, Label,
    TruthReport,
};

/// Modest case count keeps the job-count legs fast in debug mode
/// while still sampling every motif family many times over.
const PLAN: &str = "seed=2024,cases=24,motifs=red+outlined+aos+csr+halo,per=3";

fn gated_opts(truth: GroundTruth) -> DriverOptions {
    DriverOptions {
        ground_truth: Some(Arc::new(truth)),
        ..Default::default()
    }
}

/// Folds every case's `TruthReport` into a suite total, failing the
/// test on any driver error along the way.
fn run_gated(plan: &GenPlan, mut opts: DriverOptions) -> TruthReport {
    let (cases, truth) = suite(plan);
    opts.ground_truth = Some(Arc::new(truth));
    let mut total = TruthReport::default();
    for (case, r) in cases.iter().zip(run_suite(&cases, &opts)) {
        let r = r.unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let t = r
            .truth
            .as_ref()
            .unwrap_or_else(|| panic!("{}: gate produced no truth report", case.name));
        total.absorb(t);
    }
    total
}

#[test]
fn same_plan_regenerates_a_byte_identical_corpus() {
    let plan = GenPlan::parse("seed=99,cases=12,per=2").unwrap();
    let base = std::env::temp_dir().join("oraql_gen_soundness_corpus");
    let (a, b) = (base.join("a"), base.join("b"));
    let sa = write_corpus(&plan, &a).unwrap();
    let sb = write_corpus(&plan, &b).unwrap();
    assert_eq!(sa.cases, 12);
    assert_eq!(sa.labels, sb.labels);
    let mut names: Vec<_> = std::fs::read_dir(&a)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    names.sort();
    assert_eq!(names.len(), 13, "12 configs + MANIFEST");
    for name in names {
        let fa = std::fs::read(a.join(&name)).unwrap();
        let fb = std::fs::read(b.join(&name)).unwrap();
        assert_eq!(fa, fb, "{name:?} differs between two writes");
    }
    std::fs::remove_dir_all(&base).ok();
}

/// Labels and verdicts agree at every job count: violations stay empty
/// and every violating-labelled pair is pinned.
#[test]
fn labels_agree_with_verdicts_across_jobs_and_depth() {
    let plan = GenPlan::parse(PLAN).unwrap();
    for jobs in [1usize, 4] {
        let t = run_gated(
            &plan,
            DriverOptions {
                jobs,
                ..Default::default()
            },
        );
        assert!(t.clean(), "jobs={jobs}: {}", t.describe_violations());
        assert!(t.checked > 0, "jobs={jobs}: nothing checked");
        assert!(
            t.pessimism_held > 0,
            "jobs={jobs}: no violating pair was ever pinned"
        );
        assert!(
            t.optimism_confirmed > 0,
            "jobs={jobs}: no safe pair ever stayed optimistic"
        );
    }
}

/// A deliberately wrong label must trip the gate, not pass silently:
/// mislabel a provably-disjoint pair as `Must` and the driver's kept
/// optimism on it becomes a `SoundnessViolation`.
#[test]
fn mislabelled_safe_pair_trips_the_gate() {
    let plan = GenPlan {
        motifs: vec![Motif::Red],
        cases: 16,
        per_case: 2,
        ..GenPlan::default()
    };
    let (cases, truth) = suite(&plan);
    // Find a case carrying at least one `No`-labelled pair and rebuild
    // its truth with every such pair flipped to the violating label.
    let mut tripped = false;
    for case in &cases {
        let no_pairs: Vec<_> = truth
            .pairs()
            .filter(|p| p.case == case.name && p.label == Label::No)
            .collect();
        if no_pairs.is_empty() {
            continue;
        }
        let mut bad = GroundTruth::new();
        for p in &no_pairs {
            bad.insert(&p.case, &p.func, p.a, p.b, Label::Must);
        }
        match Driver::run(case, gated_opts(bad)) {
            Err(DriverError::SoundnessViolation(msg)) => {
                assert!(msg.contains("must"), "unexpected message: {msg}");
                tripped = true;
                break;
            }
            Err(e) => panic!("expected SoundnessViolation, got {e}"),
            Ok(_) => panic!("mislabelled corpus passed the gate"),
        }
    }
    assert!(tripped, "plan produced no disjoint red pair to mislabel");
}

/// Chaos seed matrix: fault injection degrades toward pessimism only,
/// so the gate stays clean under every seed — faults may cost
/// `missed_optimism`, but a quarantined probe can never re-enable
/// optimism on an aliasing pair.
#[test]
fn chaos_faults_gain_no_optimism_on_aliasing_pairs() {
    quiet_injected_panics();
    let plan = GenPlan::parse("seed=7,cases=12,per=2").unwrap();
    for seed in [1u64, 42, 1337] {
        let spec = format!(
            "seed={seed},compile-panic=1/16,vm-trap=1/24,vm-fuel-lie=1/24,\
             output-garble=1/24,store-read-corrupt=1/16"
        );
        let fault_plan = FaultPlan::parse(&spec).unwrap();
        let t = run_gated(
            &plan,
            DriverOptions {
                faults: Some(Arc::new(FaultInjector::new(fault_plan))),
                ..Default::default()
            },
        );
        assert!(t.clean(), "seed={seed}: {}", t.describe_violations());
        assert!(t.checked > 0, "seed={seed}: nothing checked");
    }
}

/// `resolve` reconstructs both the case and its truth from the name
/// alone, and the reconstructed truth drives the gate identically.
#[test]
fn resolved_case_carries_its_own_truth() {
    let plan = GenPlan::parse("seed=5,cases=4,per=2").unwrap();
    let name = oraql_suite::gen::case_name(&plan, 2);
    let gc = resolve(&name).expect("name resolves");
    let r = Driver::run(&gc.case, gated_opts(gc.truth)).unwrap();
    let t = r.truth.expect("gate ran");
    assert!(t.clean() && t.checked > 0);
}

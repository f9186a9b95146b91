//! # oraql-gen — seeded aliasing workloads with ground truth by construction
//!
//! The paper validates ORAQL on proxy apps whose true alias relations
//! are unknown — soundness rests entirely on output verification. This
//! crate closes the loop from the other side: it *generates* workloads
//! whose alias relations are known **by construction**, so every final
//! driver verdict can be cross-checked against a label map (the
//! soundness gate in `oraql::truth`).
//!
//! Pieces:
//!
//! * [`plan::GenPlan`] — the `seed=…,cases=…,motifs=…,per=…` corpus
//!   description; parse/render round-trips and the rendered string is
//!   the durable name of the corpus.
//! * [`motifs`] — five aliasing motif families modelled on the paper's
//!   benchmark observations (outlined OpenMP captures, AoS/SoA strided
//!   fields, CSR gathers over type-punned buffers, halo-exchange rank
//!   buffers, and the minimal "red square" pair), each emitting opaque-
//!   pointer workers through `oraql-ir`'s builder and recording a
//!   [`oraql::truth::Label`] for every interesting pair.
//! * [`compose`] — samples motifs into whole deterministic cases named
//!   `gen:<plan>#<index>`; the name alone reconstructs the case.
//! * [`corpus`] — materializes a plan as a directory of driver-ready
//!   `.conf` files plus a manifest, byte-identical per plan.
//!
//! The labelling discipline that keeps the gate sound — `Must` only on
//! pairs with a constructed observable hazard, `No` only on provably
//! disjoint byte ranges — is documented at the top of [`motifs`].

pub mod compose;
pub mod corpus;
pub mod motifs;
pub mod plan;

pub use compose::{case_name, compose, parse_name, resolve, suite, GenCase};
pub use corpus::{config_text, manifest_text, write_corpus, CorpusSummary};
pub use plan::{GenPlan, Motif};

#[cfg(test)]
mod tests {
    use super::*;
    use oraql::driver::{Driver, DriverOptions};
    use oraql::truth::{GroundTruth, Label};
    use std::sync::Arc;

    fn all_motifs_plan(cases: u32) -> GenPlan {
        GenPlan::parse(&format!("seed=42,cases={cases}")).unwrap()
    }

    #[test]
    fn modules_are_deterministic_and_verify() {
        let plan = all_motifs_plan(10);
        for index in 0..plan.cases {
            let g = compose(&plan, index);
            let m1 = (g.case.build)();
            let m2 = (g.case.build)();
            oraql_ir::verify::verify_module(&m1).expect("generated module verifies");
            assert_eq!(
                oraql_ir::printer::module_str(&m1),
                oraql_ir::printer::module_str(&m2),
                "case {index} must rebuild identically"
            );
        }
    }

    #[test]
    fn names_round_trip() {
        let plan = GenPlan::parse("seed=7,cases=5,motifs=red+halo,per=2").unwrap();
        for index in 0..plan.cases {
            let name = case_name(&plan, index);
            let (p2, i2) = parse_name(&name).expect("name parses");
            assert_eq!((p2, i2), (plan.clone(), index));
            let g = resolve(&name).expect("name resolves");
            assert_eq!(g.case.name, name);
            assert!(!g.truth.is_empty());
        }
        assert!(parse_name("gen:seed=7,cases=5,motifs=red,per=2#5").is_none());
        assert!(parse_name("mixed").is_none());
        assert!(parse_name("gen:bogus=1#0").is_none());
    }

    #[test]
    fn every_motif_family_is_exercised_and_labelled() {
        let plan = all_motifs_plan(40);
        let mut seen = std::collections::BTreeSet::new();
        let mut totals = (0, 0, 0);
        for index in 0..plan.cases {
            let g = compose(&plan, index);
            seen.extend(g.motifs.iter().copied());
            let (no, may, must) = g.truth.counts();
            totals.0 += no;
            totals.1 += may;
            totals.2 += must;
        }
        assert_eq!(seen.len(), Motif::ALL.len(), "sampler covers all motifs");
        assert!(totals.0 > 0 && totals.1 > 0 && totals.2 > 0, "{totals:?}");
    }

    #[test]
    fn gated_driver_runs_clean_on_generated_cases() {
        let plan = all_motifs_plan(6);
        for index in 0..plan.cases {
            let g = compose(&plan, index);
            let opts = DriverOptions {
                ground_truth: Some(Arc::new(g.truth)),
                ..Default::default()
            };
            let res = Driver::run(&g.case, opts).expect("gated run succeeds");
            let t = res.truth.expect("gate report present");
            assert!(t.clean(), "case {index}: {t}");
            assert!(t.checked > 0, "case {index} checked no labelled pairs");
        }
    }

    #[test]
    fn mislabelled_pair_trips_the_gate() {
        // Find a case whose truth holds a No pair that the driver keeps
        // optimistic, then flip that single label to Must: the gate has
        // to fail the run even though the program output is fine.
        let plan = GenPlan::parse("seed=42,cases=4,motifs=red,per=1").unwrap();
        let mut tripped = false;
        for index in 0..plan.cases {
            let g = compose(&plan, index);
            let no_pairs: Vec<_> = g.truth.pairs().filter(|p| p.label == Label::No).collect();
            if no_pairs.is_empty() {
                continue;
            }
            let mut bad = GroundTruth::new();
            for p in &no_pairs {
                bad.insert(&p.case, &p.func, p.a, p.b, Label::Must);
            }
            let opts = DriverOptions {
                ground_truth: Some(Arc::new(bad)),
                ..Default::default()
            };
            match Driver::run(&g.case, opts) {
                Err(oraql::driver::DriverError::SoundnessViolation(msg)) => {
                    assert!(msg.contains("must"), "{msg}");
                    tripped = true;
                    break;
                }
                Err(e) => panic!("expected SoundnessViolation, got {e}"),
                Ok(_) => panic!("expected SoundnessViolation, run passed"),
            }
        }
        assert!(tripped, "no disjoint red case found in 4 seeds");
    }

    #[test]
    fn corpus_files_are_byte_identical_across_writes() {
        let plan = GenPlan::parse("seed=9,cases=6,per=2").unwrap();
        let dir = std::env::temp_dir().join("oraql_gen_corpus_test");
        let _ = std::fs::remove_dir_all(&dir);
        let s1 = write_corpus(&plan, &dir).unwrap();
        let read = |d: &std::path::Path| {
            let mut all = Vec::new();
            let mut names: Vec<_> = std::fs::read_dir(d)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            names.sort();
            for p in names {
                all.push((p.clone(), std::fs::read(p).unwrap()));
            }
            all
        };
        let first = read(&dir);
        let s2 = write_corpus(&plan, &dir).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(first, read(&dir));
        assert_eq!(first.len(), 7, "6 cases + MANIFEST");
        let manifest = manifest_text(&plan);
        assert!(manifest.contains(&format!("plan = {}", plan.render())));
        assert!(manifest.contains("case_00005.conf"));
        // Each config names a resolvable case.
        for (path, bytes) in &first {
            if path.extension().is_some_and(|e| e == "conf") {
                let text = String::from_utf8(bytes.clone()).unwrap();
                let cfg = oraql::config::Config::parse(&text).unwrap();
                assert!(resolve(&cfg.benchmark).is_some(), "{}", cfg.benchmark);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Corpus materialization: writing a plan out as a directory of
//! driver-ready config files plus a manifest.
//!
//! The on-disk format is deliberately thin — each case file is a normal
//! `oraql` benchmark config whose `benchmark` key is the case's
//! `gen:<plan>#<index>` name, so the CLI reconstructs the module (and
//! its ground truth) from the name alone. Everything is a pure function
//! of the plan: rewriting a corpus from the same plan is byte-identical,
//! which the CI smoke checks.

use std::io;
use std::path::Path;

use crate::compose::{compose, GenCase};
use crate::plan::GenPlan;

/// What [`write_corpus`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusSummary {
    /// Cases written (one config file each).
    pub cases: u32,
    /// Total labels across the corpus as `(no, may, must)`.
    pub labels: (usize, usize, usize),
}

/// File name of case `index` (`case_00042.conf`).
pub fn case_file_name(index: u32) -> String {
    format!("case_{index:05}.conf")
}

fn config_text_of(plan: &GenPlan, g: &GenCase) -> String {
    let (no, may, must) = g.truth.counts();
    let motifs: Vec<&str> = g.motifs.iter().map(|m| m.as_str()).collect();
    format!(
        "# generated by oraql-gen; regenerate with: oraql gen --plan \"{}\"\n\
         # motifs: {}  labels: no={no} may={may} must={must}\n\
         benchmark = {}\n",
        plan.render(),
        motifs.join("+"),
        g.case.name,
    )
}

/// The manifest as its cases are composed: label totals plus one line
/// per case file.
#[derive(Default)]
struct Manifest {
    labels: (usize, usize, usize),
    lines: String,
}

impl Manifest {
    fn add(&mut self, index: u32, g: &GenCase) {
        let (no, may, must) = g.truth.counts();
        self.labels.0 += no;
        self.labels.1 += may;
        self.labels.2 += must;
        let motifs: Vec<&str> = g.motifs.iter().map(|m| m.as_str()).collect();
        self.lines.push_str(&format!(
            "{}  {}  no={no} may={may} must={must}  motifs={}\n",
            case_file_name(index),
            g.case.name,
            motifs.join("+"),
        ));
    }

    fn render(&self, plan: &GenPlan) -> String {
        let (no, may, must) = self.labels;
        format!(
            "# oraql-gen corpus manifest\n\
             plan = {}\n\
             cases = {}\n\
             labels = no={no} may={may} must={must}\n\
             {}",
            plan.render(),
            plan.cases,
            self.lines,
        )
    }
}

/// Renders the config file for case `index` of `plan`.
pub fn config_text(plan: &GenPlan, index: u32) -> String {
    config_text_of(plan, &compose(plan, index))
}

/// Renders the corpus manifest: the plan, per-case files, and label
/// tallies.
pub fn manifest_text(plan: &GenPlan) -> String {
    let mut manifest = Manifest::default();
    for index in 0..plan.cases {
        manifest.add(index, &compose(plan, index));
    }
    manifest.render(plan)
}

/// Writes the corpus for `plan` into `dir` (created if missing): one
/// `case_*.conf` per case plus `MANIFEST.txt`. Deterministic and
/// overwriting — running it twice leaves byte-identical files.
pub fn write_corpus(plan: &GenPlan, dir: &Path) -> io::Result<CorpusSummary> {
    std::fs::create_dir_all(dir)?;
    let mut manifest = Manifest::default();
    for index in 0..plan.cases {
        let g = compose(plan, index);
        manifest.add(index, &g);
        std::fs::write(dir.join(case_file_name(index)), config_text_of(plan, &g))?;
    }
    std::fs::write(dir.join("MANIFEST.txt"), manifest.render(plan))?;
    Ok(CorpusSummary {
        cases: plan.cases,
        labels: manifest.labels,
    })
}

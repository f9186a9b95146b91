//! Ground-truth alias labels and the corpus soundness gate.
//!
//! Generated workloads (`oraql-gen`) know, **by construction**, the
//! alias relation of the pointer pairs they emit: a composer wires
//! worker-function arguments to concrete byte ranges of module globals,
//! so "do these two pointers alias?" is a question about integer
//! intervals, not about analysis. This module is the driver-side
//! consumer of that knowledge: a [`GroundTruth`] map attached to
//! [`crate::DriverOptions`] makes the driver cross-check every final
//! verdict against the labels after the normal verification step, and
//! fail loudly — [`crate::DriverError::SoundnessViolation`] — if the
//! probing workflow ever *kept* an optimistic answer on a pair labelled
//! as genuinely aliasing.
//!
//! # The invariant being gated
//!
//! ORAQL's safety argument is observational: a wrong no-alias answer is
//! acceptable only while it does not change program output. The
//! generator therefore only labels a pair [`Label::Must`] when it has
//! also emitted an *observable hazard* on that pair (a load / store /
//! load sandwich whose printed value diverges under wrong forwarding).
//! For such pairs the bisection must always end pessimistic — under any
//! job count, cache tier, or injected fault, because
//! every degradation path in the driver (quarantine, retry, deduction)
//! moves answers toward may-alias, never away from it. The gate turns
//! that argument into a machine-checked per-case invariant: an
//! optimistic final verdict on a `Must` pair is a driver bug (or a
//! mislabelled generator motif) and fails the case.
//!
//! Pairs labelled [`Label::No`] are the payoff side: the gate counts
//! how many of them the driver actually answered optimistically
//! (`optimism_confirmed`) versus left pessimistic (`missed_optimism`).
//! [`Label::May`] marks pairs whose relation is data- or
//! thread-dependent; they can never violate the gate.
//!
//! # Keying
//!
//! Labels are keyed exactly like the ORAQL pass's own decision cache:
//! the *unordered* pair of pointer SSA values within a named function
//! (location sizes ignored), plus the case name so one merged map can
//! gate a whole suite run. Queries on values the generator did not
//! label (e.g. pointers materialized by later passes) are counted as
//! `unchecked` and never fail the gate.

use crate::pass::{OptimismKind, UniqueQuery};
use oraql_ir::module::Module;
use oraql_ir::value::Value;
use std::collections::HashMap;

/// A ground-truth alias label for one pointer pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// The pair's accesses are disjoint on every execution; an
    /// optimistic answer is genuinely correct.
    No,
    /// The relation is data- or thread-dependent (e.g. indirection
    /// through runtime indices); either answer may be observationally
    /// fine.
    May,
    /// The pair genuinely aliases **and** the generator emitted an
    /// observable hazard on it: a kept optimistic answer is a soundness
    /// violation.
    Must,
}

impl Label {
    /// Stable lowercase name (manifest / report vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            Label::No => "no",
            Label::May => "may",
            Label::Must => "must",
        }
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One labelled pointer pair, as stored (canonical value order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledPair {
    /// Case the label belongs to (suite maps are merged across cases).
    pub case: String,
    /// Function containing the pair.
    pub func: String,
    /// Smaller pointer value of the unordered pair.
    pub a: Value,
    /// Larger pointer value.
    pub b: Value,
    /// The relation, by construction.
    pub label: Label,
}

/// A map of ground-truth labels, keyed like the ORAQL decision cache:
/// `(case, function name, unordered value pair)`.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    labels: HashMap<(String, String, Value, Value), Label>,
}

fn canon(a: Value, b: Value) -> (Value, Value) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl GroundTruth {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a label for the unordered pair `(a, b)` in `func` of
    /// `case`. Later inserts overwrite earlier ones.
    pub fn insert(&mut self, case: &str, func: &str, a: Value, b: Value, label: Label) {
        let (a, b) = canon(a, b);
        self.labels
            .insert((case.to_owned(), func.to_owned(), a, b), label);
    }

    /// Looks up the label for an unordered pair.
    pub fn lookup(&self, case: &str, func: &str, a: Value, b: Value) -> Option<Label> {
        let (a, b) = canon(a, b);
        self.labels
            .get(&(case.to_owned(), func.to_owned(), a, b))
            .copied()
    }

    /// Absorbs all labels of `other` (suite runs merge per-case maps).
    pub fn merge(&mut self, other: GroundTruth) {
        self.labels.extend(other.labels);
    }

    /// Number of labelled pairs.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterates the stored labels (test and tooling access).
    pub fn pairs(&self) -> impl Iterator<Item = LabeledPair> + '_ {
        self.labels
            .iter()
            .map(|((case, func, a, b), label)| LabeledPair {
                case: case.clone(),
                func: func.clone(),
                a: *a,
                b: *b,
                label: *label,
            })
    }

    /// How many pairs carry each label, as `(no, may, must)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for label in self.labels.values() {
            match label {
                Label::No => c.0 += 1,
                Label::May => c.1 += 1,
                Label::Must => c.2 += 1,
            }
        }
        c
    }

    /// Cross-checks the final verdicts of one case against the labels.
    ///
    /// `queries` are the unique queries of the **final** compilation
    /// (the verdicts the driver is committing to); `module` resolves
    /// their function ids to names. Violations are collected, not
    /// panicked on — the driver turns a non-empty list into
    /// [`crate::DriverError::SoundnessViolation`].
    pub fn check(
        &self,
        case: &str,
        module: &Module,
        queries: &[UniqueQuery],
        optimism: OptimismKind,
    ) -> TruthReport {
        let mut r = TruthReport::default();
        for q in queries {
            let func = &module.func(q.func).name;
            let Some(label) = self.lookup(case, func, q.a.ptr, q.b.ptr) else {
                r.unchecked += 1;
                continue;
            };
            r.checked += 1;
            // Which label contradicts a *kept* optimistic answer depends
            // on what optimism means for this case (§VIII extension):
            // optimistic-NoAlias is wrong on a genuinely-aliasing pair,
            // optimistic-MustAlias is wrong on a genuinely-disjoint one.
            let violating = match optimism {
                OptimismKind::NoAlias => Label::Must,
                OptimismKind::MustAlias => Label::No,
            };
            match (q.optimistic, label) {
                (true, l) if l == violating => r.violations.push(Violation {
                    case: case.to_owned(),
                    func: func.clone(),
                    a: q.a.ptr,
                    b: q.b.ptr,
                    label,
                    pass: q.pass,
                    index: q.index,
                }),
                (true, Label::May) => r.optimism_on_may += 1,
                (true, _) => r.optimism_confirmed += 1,
                (false, l) if l == violating => r.pessimism_held += 1,
                (false, Label::May) => r.pessimism_on_may += 1,
                (false, _) => r.missed_optimism += 1,
            }
        }
        r
    }
}

/// One gate failure: a kept optimistic answer on a pair whose label
/// says the optimism is genuinely wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub case: String,
    pub func: String,
    pub a: Value,
    pub b: Value,
    pub label: Label,
    /// Pass that issued the query's first occurrence.
    pub pass: &'static str,
    /// Position in the decision sequence.
    pub index: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: optimistic verdict on {}-labelled pair {:?} / {:?} in {} (pass {}, index {})",
            self.case, self.label, self.a, self.b, self.func, self.pass, self.index
        )
    }
}

/// What the gate saw for one case (also a report column source).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TruthReport {
    /// Final-verdict queries that had a label.
    pub checked: u64,
    /// Final-verdict queries with no label (pairs the generator did not
    /// construct, e.g. pass-materialized pointers). Never a failure.
    pub unchecked: u64,
    /// Optimistic verdicts on pairs labelled safe for optimism — the
    /// generator's "payoff" pairs the driver actually cashed in.
    pub optimism_confirmed: u64,
    /// Pessimistic verdicts on violating-labelled pairs: the red
    /// squares the verification loop correctly pinned.
    pub pessimism_held: u64,
    /// Pessimistic verdicts on pairs that were safe to answer
    /// optimistically (cost, not a bug: bisection is locally maximal,
    /// and faults quarantine toward pessimism).
    pub missed_optimism: u64,
    /// Optimistic verdicts on `May`-labelled (data-dependent) pairs.
    pub optimism_on_may: u64,
    /// Pessimistic verdicts on `May`-labelled pairs.
    pub pessimism_on_may: u64,
    /// Kept optimistic answers on violating-labelled pairs. Any entry
    /// here fails the case with `DriverError::SoundnessViolation`.
    pub violations: Vec<Violation>,
}

impl TruthReport {
    /// True when the gate passed (possibly vacuously).
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Folds another case's report into a suite total (violations are
    /// concatenated, counters added).
    pub fn absorb(&mut self, other: &TruthReport) {
        self.checked += other.checked;
        self.unchecked += other.unchecked;
        self.optimism_confirmed += other.optimism_confirmed;
        self.pessimism_held += other.pessimism_held;
        self.missed_optimism += other.missed_optimism;
        self.optimism_on_may += other.optimism_on_may;
        self.pessimism_on_may += other.pessimism_on_may;
        self.violations.extend(other.violations.iter().cloned());
    }

    /// One-line failure description for `DriverError::SoundnessViolation`.
    pub fn describe_violations(&self) -> String {
        let mut s = format!("{} ground-truth violation(s):", self.violations.len());
        for v in &self.violations {
            s.push_str("\n  ");
            s.push_str(&v.to_string());
        }
        s
    }
}

impl std::fmt::Display for TruthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} checked ({} optimism confirmed, {} pinned, {} missed, {} may) | {} unchecked | {} violations",
            self.checked,
            self.optimism_confirmed,
            self.pessimism_held,
            self.missed_optimism,
            self.optimism_on_may + self.pessimism_on_may,
            self.unchecked,
            self.violations.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_analysis::location::{LocationSize, MemoryLocation};
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::types::Ty;
    use oraql_ir::Module;

    fn loc(v: Value) -> MemoryLocation {
        MemoryLocation {
            ptr: v,
            size: LocationSize::Precise(8),
            tbaa: None,
            scopes: Vec::new(),
            noalias: Vec::new(),
        }
    }

    fn query(func: u32, a: Value, b: Value, optimistic: bool) -> UniqueQuery {
        UniqueQuery {
            func: oraql_ir::module::FunctionId(func),
            a: loc(a),
            b: loc(b),
            optimistic,
            pass: "gvn",
            index: 0,
            cached_hits: 0,
        }
    }

    fn module_with_one_func() -> Module {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "w", vec![Ty::Ptr, Ty::Ptr], None);
        b.ret(None);
        b.finish();
        m
    }

    #[test]
    fn lookup_is_order_independent() {
        let mut gt = GroundTruth::new();
        gt.insert("c", "w", Value::Arg(1), Value::Arg(0), Label::Must);
        assert_eq!(
            gt.lookup("c", "w", Value::Arg(0), Value::Arg(1)),
            Some(Label::Must)
        );
        assert_eq!(
            gt.lookup("c", "w", Value::Arg(1), Value::Arg(0)),
            Some(Label::Must)
        );
        assert_eq!(gt.lookup("c", "x", Value::Arg(0), Value::Arg(1)), None);
        assert_eq!(gt.lookup("d", "w", Value::Arg(0), Value::Arg(1)), None);
    }

    #[test]
    fn gate_flags_optimism_on_must_only() {
        let m = module_with_one_func();
        let mut gt = GroundTruth::new();
        gt.insert("c", "w", Value::Arg(0), Value::Arg(1), Label::Must);
        // Pessimistic on a must pair: the gate held.
        let r = gt.check(
            "c",
            &m,
            &[query(0, Value::Arg(0), Value::Arg(1), false)],
            OptimismKind::NoAlias,
        );
        assert!(r.clean());
        assert_eq!(r.pessimism_held, 1);
        // Optimistic on the same pair: violation.
        let r = gt.check(
            "c",
            &m,
            &[query(0, Value::Arg(1), Value::Arg(0), true)],
            OptimismKind::NoAlias,
        );
        assert_eq!(r.violations.len(), 1);
        assert!(!r.clean());
        assert!(r.describe_violations().contains("must-labelled"));
    }

    #[test]
    fn gate_respects_optimism_kind() {
        let m = module_with_one_func();
        let mut gt = GroundTruth::new();
        gt.insert("c", "w", Value::Arg(0), Value::Arg(1), Label::No);
        // Under NoAlias optimism, optimistic-on-No is the confirmed payoff…
        let r = gt.check(
            "c",
            &m,
            &[query(0, Value::Arg(0), Value::Arg(1), true)],
            OptimismKind::NoAlias,
        );
        assert!(r.clean());
        assert_eq!(r.optimism_confirmed, 1);
        // …but under MustAlias optimism the same verdict is a violation.
        let r = gt.check(
            "c",
            &m,
            &[query(0, Value::Arg(0), Value::Arg(1), true)],
            OptimismKind::MustAlias,
        );
        assert_eq!(r.violations.len(), 1);
    }

    #[test]
    fn may_and_unlabelled_never_violate() {
        let m = module_with_one_func();
        let mut gt = GroundTruth::new();
        gt.insert("c", "w", Value::Arg(0), Value::Arg(1), Label::May);
        let r = gt.check(
            "c",
            &m,
            &[
                query(0, Value::Arg(0), Value::Arg(1), true),
                query(0, Value::Arg(0), Value::Arg(1), false),
                query(0, Value::Arg(0), Value::ConstInt(0), true),
            ],
            OptimismKind::NoAlias,
        );
        assert!(r.clean());
        assert_eq!(r.optimism_on_may, 1);
        assert_eq!(r.pessimism_on_may, 1);
        assert_eq!(r.unchecked, 1);
    }

    #[test]
    fn merge_and_absorb_accumulate() {
        let mut a = GroundTruth::new();
        a.insert("c1", "w", Value::Arg(0), Value::Arg(1), Label::No);
        let mut b = GroundTruth::new();
        b.insert("c2", "w", Value::Arg(0), Value::Arg(1), Label::Must);
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.counts(), (1, 0, 1));
        assert_eq!(a.pairs().count(), 2);

        let mut total = TruthReport::default();
        let one = TruthReport {
            checked: 3,
            optimism_confirmed: 2,
            pessimism_held: 1,
            ..Default::default()
        };
        total.absorb(&one);
        total.absorb(&one);
        assert_eq!(total.checked, 6);
        assert_eq!(total.optimism_confirmed, 4);
        assert!(total.clean());
    }
}
